#!/usr/bin/env python3
"""Unit tests for tools/determinism_lint.py: the comment/string-aware source
scanner, each rule through the CLI on a synthetic tree, and the repo tree
itself, which must lint clean."""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "determinism_lint.py")
sys.path.insert(0, os.path.join(REPO, "tools"))

import determinism_lint as lint  # noqa: E402


class SourceTextTest(unittest.TestCase):
    def test_line_comment_masked(self):
        sc = lint.scan("int x = 1;  // rand() in prose\n")
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("int x = 1;", sc.code(1))

    def test_block_comment_masked_single_line(self):
        sc = lint.scan("/* rand() */ int y;\n")
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("int y;", sc.code(1))

    def test_block_comment_masked_multi_line(self):
        sc = lint.scan("/* first\n * rand() here\n */ int z;\n")
        self.assertNotIn("rand", sc.code(2))
        self.assertIn("int z;", sc.code(3))

    def test_string_literal_masked(self):
        sc = lint.scan('log("calling rand()");\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("log(", sc.code(1))

    def test_string_escapes(self):
        sc = lint.scan('s = "a\\"rand()"; f();\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("f();", sc.code(1))

    def test_char_literal_masked(self):
        sc = lint.scan("char c = 'r'; go();\n")
        self.assertIn("go();", sc.code(1))

    def test_raw_string_masked(self):
        sc = lint.scan('auto s = R"(rand() here)"; f();\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("f();", sc.code(1))

    def test_raw_string_custom_delim(self):
        sc = lint.scan('auto s = R"x(a )" rand b)x"; g();\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("g();", sc.code(1))

    def test_columns_preserved(self):
        line = 'foo(); /* pad */ bar();\n'
        sc = lint.scan(line)
        self.assertEqual(len(sc.code(1)), len(line) - 1)
        self.assertEqual(sc.code(1).index("bar"), line.index("bar"))

    def test_allow_basic(self):
        sc = lint.scan("x();  // lint:allow(unordered-iter)\n")
        self.assertTrue(sc.allowed(1, "unordered-iter"))
        self.assertFalse(sc.allowed(1, "rand"))
        self.assertFalse(sc.allowed(2, "unordered-iter"))

    def test_allow_comma_list(self):
        sc = lint.scan("x();  // lint:allow(rand, wall-clock)\n")
        self.assertTrue(sc.allowed(1, "rand"))
        self.assertTrue(sc.allowed(1, "wall-clock"))

    def test_allow_in_block_comment(self):
        sc = lint.scan("x(); /* lint:allow(rand) */\n")
        self.assertTrue(sc.allowed(1, "rand"))

    def test_allow_tail_not_code(self):
        # A regex lint that strips only the lint:allow(...) token leaves the
        # rest of the trailing comment in the scanned line; the scanner must
        # treat the whole trailing comment as comment.
        sc = lint.scan(
            "now();  // lint:allow(wall-clock), unlike rand()\n")
        self.assertTrue(sc.allowed(1, "wall-clock"))
        self.assertNotIn("rand", sc.code(1))

    def test_allow_inside_string_is_not_an_allow(self):
        sc = lint.scan('s = "// lint:allow(rand)"; rand();\n')
        self.assertFalse(sc.allowed(1, "rand"))
        self.assertIn("rand();", sc.code(1))


class DeterminismLintIntegrationTest(unittest.TestCase):
    """The lint through its CLI, on a synthetic tree."""

    def run_lint(self, source, relpath="src/t.cc"):
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, relpath)
            os.makedirs(os.path.dirname(path))
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
            proc = subprocess.run([sys.executable, LINT, td],
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_rand_call_fires(self):
        rc, out = self.run_lint("int f() { return rand(); }\n")
        self.assertEqual(rc, 1)
        self.assertIn("[rand]", out)

    def test_prose_in_block_comment_silent(self):
        rc, out = self.run_lint(
            "/* unlike rand(), dibs::Rng is seeded */\nint f();\n")
        self.assertEqual(rc, 0, out)

    def test_lint_allow_suppresses(self):
        rc, out = self.run_lint(
            "int f() { return rand(); }  // lint:allow(rand)\n")
        self.assertEqual(rc, 0, out)

    def test_allow_tail_comment_not_rescanned(self):
        rc, out = self.run_lint(
            "auto t = std::chrono::steady_clock::now();"
            "  // lint:allow(wall-clock), unlike rand()\n")
        self.assertEqual(rc, 0, out)

    def test_wall_clock_fires(self):
        rc, out = self.run_lint(
            "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(rc, 1)
        self.assertIn("[wall-clock]", out)

    def test_unordered_container_in_src_fires(self):
        rc, out = self.run_lint(
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> by_uid;\n")
        self.assertEqual(rc, 1)
        self.assertIn("src/t.cc:2: [unordered-iter]", out)
        self.assertEqual(out.count("[unordered-iter]"), 1, out)

    def test_unordered_include_alone_silent(self):
        rc, out = self.run_lint(
            "#include <unordered_map>\n#include <unordered_set>\n")
        self.assertEqual(rc, 0, out)

    def test_unordered_allow_suppresses(self):
        rc, out = self.run_lint(
            "std::unordered_set<int> seen;"
            "  // lint:allow(unordered-iter): lookup only\n")
        self.assertEqual(rc, 0, out)

    def test_unordered_container_outside_src_silent(self):
        rc, out = self.run_lint("std::unordered_map<int, double> m;\n",
                                relpath="tests/t.cc")
        self.assertEqual(rc, 0, out)

    def test_pointer_keyed_containers_fire(self):
        rc, out = self.run_lint(
            "using PortMap = std::map<Node*, int>;\n"
            "std::set<const Node*> seen;\n"
            "std::multiset<Node*> g_pending;\n"
            "std::multimap<Node *, int> by_node;\n")
        self.assertEqual(rc, 1)
        for lineno in (1, 2, 3, 4):
            self.assertIn("src/t.cc:%d: [pointer-key-order]" % lineno, out)

    def test_pointer_key_in_any_scanned_dir_fires(self):
        rc, out = self.run_lint("std::set<Node*> scratch;\n",
                                relpath="bench/t.cc")
        self.assertEqual(rc, 1)
        self.assertIn("[pointer-key-order]", out)

    def test_pointer_value_or_nested_pointer_silent(self):
        rc, out = self.run_lint(
            "std::map<int, Node*> by_id;\n"
            "std::map<std::pair<int, Node*>, int> by_pair;\n"
            "std::set<std::string> names;\n")
        self.assertEqual(rc, 0, out)

    def test_pointer_key_allow_suppresses(self):
        rc, out = self.run_lint(
            "std::set<Node*> scratch;"
            "  // lint:allow(pointer-key-order): never iterated\n")
        self.assertEqual(rc, 0, out)

    def test_repo_tree_is_clean(self):
        proc = subprocess.run([sys.executable, LINT, REPO],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
