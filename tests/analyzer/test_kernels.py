#!/usr/bin/env python3
"""Unit tests for the dibs-analyzer rule kernels, source scanner, baseline
machinery, and the determinism_lint pre-pass.

Runs everywhere: rules are pure functions over the frontend-neutral Model
(tools/analyzer/model.py), so no libclang is needed — Models are built by
hand. The libclang end-to-end path is covered by run_fixture_tests.py, which
skips where the bindings are unavailable.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools"))

from analyzer import baseline  # noqa: E402
from analyzer import rules  # noqa: E402
from analyzer import source_text  # noqa: E402
from analyzer.model import (  # noqa: E402
    CallSite, FunctionInfo, HandlerReg, IterationSite, Loc, Model, RecordInfo,
    VarInfo)


def fn(usr, qualified, *, klass="", kind="function", is_const=False,
       is_definition=True, in_repo=True, calls=(), news=(), throws=(),
       file="src/x.cc", line=1):
    name = qualified.rsplit("::", 1)[-1]
    return FunctionInfo(
        usr=usr, name=name, qualified=qualified, loc=Loc(file, line),
        class_qualified=klass, kind=kind, is_const=is_const,
        is_definition=is_definition, in_repo=in_repo, calls=list(calls),
        news=list(news), throws=list(throws))


def call(callee_usr, qualified, *, klass="", is_method=False, is_const=False,
         file="src/x.cc", line=10):
    name = qualified.rsplit("::", 1)[-1]
    return CallSite(
        loc=Loc(file, line), callee_usr=callee_usr, callee_name=name,
        callee_qualified=qualified, callee_class=klass,
        callee_is_method=is_method, callee_is_const=is_const)


def run(model, rule):
    return rules.run_rules(model, rules=[rule])


class SourceTextTest(unittest.TestCase):
    def test_line_comment_masked(self):
        sc = source_text.scan("int x = 1;  // rand() in prose\n")
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("int x = 1;", sc.code(1))

    def test_block_comment_masked_single_line(self):
        sc = source_text.scan("/* rand() */ int y;\n")
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("int y;", sc.code(1))

    def test_block_comment_masked_multi_line(self):
        sc = source_text.scan("/* first\n * rand() here\n */ int z;\n")
        self.assertNotIn("rand", sc.code(2))
        self.assertIn("int z;", sc.code(3))

    def test_string_literal_masked(self):
        sc = source_text.scan('log("calling rand()");\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("log(", sc.code(1))

    def test_string_escapes(self):
        sc = source_text.scan('s = "a\\"rand()"; f();\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("f();", sc.code(1))

    def test_char_literal_masked(self):
        sc = source_text.scan("char c = 'r'; go();\n")
        self.assertIn("go();", sc.code(1))

    def test_raw_string_masked(self):
        sc = source_text.scan('auto s = R"(rand() here)"; f();\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("f();", sc.code(1))

    def test_raw_string_custom_delim(self):
        sc = source_text.scan('auto s = R"x(a )" rand b)x"; g();\n')
        self.assertNotIn("rand", sc.code(1))
        self.assertIn("g();", sc.code(1))

    def test_columns_preserved(self):
        line = 'foo(); /* pad */ bar();\n'
        sc = source_text.scan(line)
        self.assertEqual(len(sc.code(1)), len(line) - 1)
        self.assertEqual(sc.code(1).index("bar"), line.index("bar"))

    def test_allow_basic(self):
        sc = source_text.scan("x();  // lint:allow(determinism-ast)\n")
        self.assertTrue(sc.allowed(1, "determinism-ast"))
        self.assertFalse(sc.allowed(1, "signal-safety"))
        self.assertFalse(sc.allowed(2, "determinism-ast"))

    def test_allow_comma_list(self):
        sc = source_text.scan("x();  // lint:allow(rand, wall-clock)\n")
        self.assertTrue(sc.allowed(1, "rand"))
        self.assertTrue(sc.allowed(1, "wall-clock"))

    def test_allow_in_block_comment(self):
        sc = source_text.scan("x(); /* lint:allow(rand) */\n")
        self.assertTrue(sc.allowed(1, "rand"))

    def test_allow_tail_not_code(self):
        # The old regex lint left text after lint:allow(...) in the scanned
        # line; the scanner must treat the whole trailing comment as comment.
        sc = source_text.scan(
            "now();  // lint:allow(wall-clock), unlike rand()\n")
        self.assertTrue(sc.allowed(1, "wall-clock"))
        self.assertNotIn("rand", sc.code(1))

    def test_allow_inside_string_is_not_an_allow(self):
        sc = source_text.scan('s = "// lint:allow(rand)"; rand();\n')
        self.assertFalse(sc.allowed(1, "rand"))
        self.assertIn("rand();", sc.code(1))


class ModelTest(unittest.TestCase):
    def test_derives_from_transitive(self):
        m = Model()
        m.add_record(RecordInfo("u1", "A", bases=["B"]))
        m.add_record(RecordInfo("u2", "B", bases=["dibs::NetworkObserver"]))
        self.assertTrue(m.derives_from("A", {"dibs::NetworkObserver"}))
        self.assertFalse(m.derives_from("A", {"dibs::TraceSink"}))
        self.assertFalse(m.derives_from("missing", {"dibs::NetworkObserver"}))

    def test_derives_from_cycle_terminates(self):
        m = Model()
        m.add_record(RecordInfo("u1", "A", bases=["B"]))
        m.add_record(RecordInfo("u2", "B", bases=["A"]))
        self.assertFalse(m.derives_from("A", {"C"}))

    def test_definition_wins(self):
        m = Model()
        m.add_function(fn("u", "f", is_definition=False, in_repo=False))
        m.add_function(fn("u", "f", is_definition=True))
        self.assertTrue(m.functions["u"].is_definition)
        # A later declaration must not displace the definition.
        m.add_function(fn("u", "f", is_definition=False, in_repo=False))
        self.assertTrue(m.functions["u"].is_definition)

    def test_merge_unions_bases(self):
        a, b = Model(), Model()
        a.add_record(RecordInfo("u", "C", bases=["X"]))
        b.add_record(RecordInfo("u", "C", bases=["Y"]))
        a.merge(b)
        self.assertEqual(sorted(a.records["C"].bases), ["X", "Y"])


class DeterminismRuleTest(unittest.TestCase):
    def test_unordered_range_for_fires(self):
        m = Model()
        m.iterations.append(IterationSite(
            Loc("src/a.cc", 5),
            "std::unordered_map<int, double, std::hash<int>>"))
        self.assertEqual(len(run(m, "determinism-ast")), 1)

    def test_unordered_begin_call_fires(self):
        m = Model()
        m.iterations.append(IterationSite(
            Loc("src/a.cc", 5), "std::unordered_set<int> &",
            form="begin-call"))
        self.assertEqual(len(run(m, "determinism-ast")), 1)

    def test_ordered_map_silent(self):
        m = Model()
        m.iterations.append(IterationSite(
            Loc("src/a.cc", 5), "std::map<int, double>"))
        self.assertEqual(run(m, "determinism-ast"), [])

    def test_random_device_var_fires(self):
        m = Model()
        m.vars.append(VarInfo(Loc("src/a.cc", 3), "rd", "std::random_device"))
        self.assertEqual(len(run(m, "determinism-ast")), 1)

    def test_random_device_whitelisted_in_rng_header(self):
        m = Model()
        m.vars.append(VarInfo(
            Loc("/repo/src/util/rng.h", 3), "rd", "std::random_device"))
        self.assertEqual(run(m, "determinism-ast"), [])

    def test_rand_call_fires(self):
        m = Model()
        m.add_function(fn("u", "dibs::Step",
                          calls=[call("c", "std::rand")]))
        self.assertEqual(len(run(m, "determinism-ast")), 1)

    def test_rand_in_system_header_silent(self):
        # Only calls made FROM repo code are findings.
        m = Model()
        m.add_function(fn("u", "std::shuffle", in_repo=False,
                          calls=[call("c", "rand")]))
        self.assertEqual(run(m, "determinism-ast"), [])

    def test_wall_clock_fires_through_inline_namespace(self):
        m = Model()
        m.add_function(fn("u", "dibs::Step", calls=[
            call("c", "std::chrono::_V2::steady_clock::now")]))
        self.assertEqual(len(run(m, "determinism-ast")), 1)

    def test_wall_clock_whitelisted_under_exp(self):
        m = Model()
        m.add_function(fn("u", "dibs::Sweep", calls=[
            call("c", "std::chrono::steady_clock::now",
                 file="/repo/src/exp/sweep.cc")]))
        self.assertEqual(run(m, "determinism-ast"), [])


class PointerKeyRuleTest(unittest.TestCase):
    def test_map_pointer_key_fires(self):
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 3), "m", "std::map<dibs::Node *, int>"))
        found = run(m, "pointer-key-order")
        self.assertEqual(len(found), 1)
        self.assertIn("dibs::Node *", found[0].message)

    def test_set_const_pointer_key_fires(self):
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 3), "s",
            "std::set<const dibs::Packet *, std::less<const dibs::Packet *>>",
            kind="field"))
        self.assertEqual(len(run(m, "pointer-key-order")), 1)

    def test_inline_namespace_spelling_fires(self):
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 3), "m", "std::__1::multiset<dibs::Node *>"))
        self.assertEqual(len(run(m, "pointer-key-order")), 1)

    def test_param_skipped(self):
        # The declaration of the container fires; every function taking it
        # by reference must not re-fire.
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 9), "arg",
            "const std::map<dibs::Node *, int> &", kind="param"))
        self.assertEqual(run(m, "pointer-key-order"), [])

    def test_id_key_silent(self):
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 3), "m",
            "std::map<unsigned long, dibs::Node *>"))
        self.assertEqual(run(m, "pointer-key-order"), [])

    def test_unordered_pointer_key_is_not_this_rules_concern(self):
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 3), "m", "std::unordered_map<dibs::Node *, int>"))
        self.assertEqual(run(m, "pointer-key-order"), [])

    def test_pointer_in_nested_arg_silent(self):
        # Deliberately shallow: only the KEY type position is inspected.
        m = Model()
        m.vars.append(VarInfo(
            Loc("src/a.cc", 3), "m",
            "std::map<std::pair<int, dibs::Node *>, int>"))
        self.assertEqual(run(m, "pointer-key-order"), [])


def observer_model():
    """An Obs subclass of dibs::NetworkObserver with one hook method."""
    m = Model()
    m.add_record(RecordInfo("r1", "dibs::NetworkObserver"))
    m.add_record(RecordInfo("r2", "Obs", bases=["dibs::NetworkObserver"]))
    return m


class ObserverPurityRuleTest(unittest.TestCase):
    def test_nonconst_sim_call_fires(self):
        m = observer_model()
        m.add_function(fn("u", "Obs::OnDrop", klass="Obs", kind="method",
                          calls=[call("c", "dibs::Network::Inject",
                                      klass="dibs::Network", is_method=True)]))
        found = run(m, "observer-purity")
        self.assertEqual(len(found), 1)
        self.assertIn("Inject", found[0].message)

    def test_schedule_gets_dedicated_message(self):
        m = observer_model()
        m.add_function(fn("u", "Obs::OnDrop", klass="Obs", kind="method",
                          calls=[call("c", "dibs::Simulator::Schedule",
                                      klass="dibs::Simulator",
                                      is_method=True)]))
        found = run(m, "observer-purity")
        self.assertEqual(len(found), 1)
        self.assertIn("schedules", found[0].message)

    def test_const_call_silent(self):
        m = observer_model()
        m.add_function(fn("u", "Obs::OnDrop", klass="Obs", kind="method",
                          calls=[call("c", "dibs::Simulator::Now",
                                      klass="dibs::Simulator", is_method=True,
                                      is_const=True)]))
        self.assertEqual(run(m, "observer-purity"), [])

    def test_constructor_exempt(self):
        m = observer_model()
        m.add_function(fn("u", "Obs::Obs", klass="Obs", kind="constructor",
                          calls=[call("c", "dibs::Network::Inject",
                                      klass="dibs::Network", is_method=True)]))
        self.assertEqual(run(m, "observer-purity"), [])

    def test_indirect_through_helper_fires_at_helper(self):
        m = observer_model()
        m.add_function(fn("u1", "Obs::OnDrop", klass="Obs", kind="method",
                          calls=[call("u2", "Poke")]))
        m.add_function(fn("u2", "Poke", line=40,
                          calls=[call("c", "dibs::Network::Inject",
                                      klass="dibs::Network", is_method=True,
                                      line=41)]))
        found = run(m, "observer-purity")
        self.assertEqual(len(found), 1)
        self.assertEqual(found[0].line, 41)

    def test_non_observer_silent(self):
        m = Model()
        m.add_record(RecordInfo("r", "Driver"))
        m.add_function(fn("u", "Driver::Step", klass="Driver", kind="method",
                          calls=[call("c", "dibs::Network::Inject",
                                      klass="dibs::Network", is_method=True)]))
        self.assertEqual(run(m, "observer-purity"), [])

    def test_operator_assign_exempt(self):
        m = observer_model()
        m.add_function(fn("u", "Obs::OnDrop", klass="Obs", kind="method",
                          calls=[call("c", "dibs::Packet::operator=",
                                      klass="dibs::Packet", is_method=True)]))
        self.assertEqual(run(m, "observer-purity"), [])


class SignalSafetyRuleTest(unittest.TestCase):
    def handler_model(self):
        m = Model()
        m.handler_regs.append(HandlerReg(Loc("src/a.cc", 50), "uh", "Handler"))
        return m

    def test_allocation_fires(self):
        m = self.handler_model()
        m.add_function(fn("uh", "Handler", news=[Loc("src/a.cc", 12)]))
        found = run(m, "signal-safety")
        self.assertEqual(len(found), 1)
        self.assertIn("heap", found[0].message)

    def test_throw_fires(self):
        m = self.handler_model()
        m.add_function(fn("uh", "Handler", throws=[Loc("src/a.cc", 12)]))
        self.assertEqual(len(run(m, "signal-safety")), 1)

    def test_unwhitelisted_extern_fires(self):
        m = self.handler_model()
        m.add_function(fn("uh", "Handler",
                          calls=[call("cp", "printf")]))
        found = run(m, "signal-safety")
        self.assertEqual(len(found), 1)
        self.assertIn("printf", found[0].message)

    def test_whitelisted_extern_silent(self):
        m = self.handler_model()
        m.add_function(fn("uh", "Handler", calls=[
            call("c1", "write"), call("c2", "strlen"), call("c3", "raise")]))
        self.assertEqual(run(m, "signal-safety"), [])

    def test_dump_to_fd_is_a_root_without_registration(self):
        m = Model()
        m.add_function(fn("ud", "dibs::FlightRecorder::DumpToFd",
                          klass="dibs::FlightRecorder", kind="method",
                          news=[Loc("src/trace/fr.cc", 77)]))
        self.assertEqual(len(run(m, "signal-safety")), 1)

    def test_finding_in_system_code_anchors_at_repo_call_site(self):
        # Handler -> std::to_string (defined in a header) -> malloc. The
        # finding must point at the repo call line (12), not the header.
        m = self.handler_model()
        m.add_function(fn(
            "uh", "Handler",
            calls=[call("us", "std::to_string", file="src/a.cc", line=12)]))
        m.add_function(fn(
            "us", "std::to_string", in_repo=False, file="/usr/inc/s.h",
            line=900, calls=[call("um", "malloc", file="/usr/inc/s.h",
                                  line=901)]))
        found = run(m, "signal-safety")
        self.assertEqual(len(found), 1)
        self.assertEqual((found[0].file, found[0].line), ("src/a.cc", 12))

    def test_no_roots_no_findings(self):
        m = Model()
        m.add_function(fn("u", "Normal", news=[Loc("src/a.cc", 12)],
                          calls=[call("cp", "printf")]))
        self.assertEqual(run(m, "signal-safety"), [])


class BaselineTest(unittest.TestCase):
    def test_context_collapses_whitespace_and_masks_comments(self):
        sc = source_text.scan("  int   x;   // rand()\n")
        self.assertEqual(baseline.context_of(sc, 1), "int x;")

    def test_round_trip_and_multiset_semantics(self):
        f1 = rules.Finding("r", "a.cc", 3, 1, "msg")
        f2 = rules.Finding("r", "a.cc", 9, 1, "msg")  # same context, 2nd hit
        contexts = {("a.cc", 3): "int x;", ("a.cc", 9): "int x;"}
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "bl.json")
            baseline.save(path, [f1], contexts)
            bl = baseline.load(path)
            new, matched, stale = baseline.apply([f1, f2], bl, contexts)
        # One entry grandfathers exactly one of the two identical findings.
        self.assertEqual(len(matched), 1)
        self.assertEqual(len(new), 1)
        self.assertEqual(stale, [])

    def test_stale_entries_reported(self):
        f1 = rules.Finding("r", "a.cc", 3, 1, "msg")
        contexts = {("a.cc", 3): "int x;"}
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "bl.json")
            baseline.save(path, [f1], contexts)
            bl = baseline.load(path)
            new, matched, stale = baseline.apply([], bl, contexts)
        self.assertEqual((new, matched), ([], []))
        self.assertEqual(len(stale), 1)

    def test_missing_baseline_is_empty(self):
        self.assertEqual(baseline.load("/nonexistent/bl.json"), {})

    def test_line_drift_does_not_invalidate(self):
        f_moved = rules.Finding("r", "a.cc", 120, 1, "msg")
        bl = {("r", "a.cc", "int x;"): 1}
        new, matched, _ = baseline.apply(
            [f_moved], bl, {("a.cc", 120): "int x;"})
        self.assertEqual(len(matched), 1)
        self.assertEqual(new, [])

    def test_checked_in_baseline_is_empty(self):
        path = os.path.join(REPO, "tools", "analyzer", "baseline.json")
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        self.assertEqual(data["findings"], [])


class DeterminismLintIntegrationTest(unittest.TestCase):
    """The textual pre-pass through its CLI, on a synthetic tree."""

    def run_lint(self, source):
        with tempfile.TemporaryDirectory() as td:
            os.makedirs(os.path.join(td, "src"))
            with open(os.path.join(td, "src", "t.cc"), "w",
                      encoding="utf-8") as f:
                f.write(source)
            proc = subprocess.run(
                [sys.executable,
                 os.path.join(REPO, "tools", "determinism_lint.py"), td],
                capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_rand_call_fires(self):
        rc, out = self.run_lint("int f() { return rand(); }\n")
        self.assertEqual(rc, 1)
        self.assertIn("[rand]", out)

    def test_prose_in_block_comment_silent(self):
        # The pre-compile_commands regex lint false-positived on this.
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

    def test_repo_tree_is_clean(self):
        proc = subprocess.run(
            [sys.executable,
             os.path.join(REPO, "tools", "determinism_lint.py"), REPO],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
