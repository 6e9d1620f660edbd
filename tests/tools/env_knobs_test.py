#!/usr/bin/env python3
"""The DIBS_* environment knobs the code reads and the knobs the docs list
must be the same set.

A knob is any string literal starting with DIBS_ in src/, bench/ or tools/.
The docs' list is the first cell of every knob-table row in README.md and
EXPERIMENTS.md: a markdown table row whose first cell names DIBS_ variables.
The crash test hook is read by the code on purpose and kept out of the
tables, so it is a declared exception.

Run directly: python3 tests/tools/env_knobs_test.py
"""

import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

CODE_DIRS = ("src", "bench", "tools")
CODE_SUFFIXES = (".h", ".cc", ".cpp", ".py")
DOCS = ("README.md", "EXPERIMENTS.md")
# Test-only failure injection (src/harness/scenario.cc): never a user knob.
HOOKS = {"DIBS_TEST_CRASH_RUN"}

LITERAL = re.compile(r'"(DIBS_[A-Z0-9_]+)')
NAME = re.compile(r"DIBS_[A-Z0-9_]+")


def knobs_in_code(text):
    """DIBS_* names that open a string literal in one source file."""
    return set(LITERAL.findall(text))


def knobs_in_tables(text):
    """DIBS_* names in the first cell of the markdown table rows in `text`."""
    names = set()
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            continue
        cells = line.split("|")
        if len(cells) > 2:
            names |= set(NAME.findall(cells[1]))
    return names


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def repo_code_knobs():
    names = set()
    for top in CODE_DIRS:
        for root, _, files in os.walk(os.path.join(REPO, top)):
            for name in files:
                if name.endswith(CODE_SUFFIXES):
                    names |= knobs_in_code(read(os.path.join(root, name)))
    return names


def repo_table_knobs():
    names = set()
    for doc in DOCS:
        names |= knobs_in_tables(read(os.path.join(REPO, doc)))
    return names


class ParserTest(unittest.TestCase):
    def test_literal_at_start_of_string(self):
        code = (
            'env::Int("DIBS_JOBS", 0);\n'
            'log << "DIBS_REQUIRE_OK: sweep failed";\n'
            "// DIBS_IN_A_COMMENT is prose\n"
            'log << "set DIBS_IN_PROSE to fix";\n'
        )
        self.assertEqual(knobs_in_code(code), {"DIBS_JOBS", "DIBS_REQUIRE_OK"})

    def test_first_cell_of_table_rows(self):
        doc = (
            "Prose naming DIBS_NOT_A_ROW.\n"
            "| Variable | Effect |\n"
            "|---|---|\n"
            "| `DIBS_A=1` | implies `DIBS_NOT_FIRST_CELL` |\n"
            "| `DIBS_B` / `DIBS_C` | two knobs, one row |\n"
        )
        self.assertEqual(knobs_in_tables(doc), {"DIBS_A", "DIBS_B", "DIBS_C"})


class RepoTest(unittest.TestCase):
    def test_hooks_are_still_read(self):
        missing = HOOKS - repo_code_knobs()
        self.assertFalse(missing, "declared hooks no longer read: %s" % sorted(missing))

    def test_code_and_knob_tables_agree(self):
        code = repo_code_knobs() - HOOKS
        tables = repo_table_knobs()
        undocumented = sorted(code - tables)
        stale = sorted(tables - code)
        if undocumented or stale:
            self.fail(
                "read by the code but in no knob table of %s: %s\n"
                "in a knob table but read by no code: %s"
                % (" or ".join(DOCS), undocumented, stale)
            )


if __name__ == "__main__":
    unittest.main()
