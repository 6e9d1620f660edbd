#!/usr/bin/env python3
"""Textual determinism lint for the DIBS simulator.

The simulator's contract is bit-identical results for a given seed. This
lint bans the constructs that silently break that contract; it needs
nothing but python and runs in milliseconds on every tree. The runtime side
of the contract is checked by the chaos determinism/jobs/trace oracles, the
golden digests and ci.sh's table diffs.

Rules:

  rand              libc rand()/srand() — unseeded global state. Use
                    src/util/rng.h (dibs::Rng), which is seeded per run.
  random-device     std::random_device — hardware entropy, different every
                    run.
  wall-clock        std::chrono::{system,steady,high_resolution}_clock — wall
                    time must never feed simulation state. (Whitelisted in
                    src/exp/, where the parallel sweep engine times *itself*,
                    off the simulation path.)
  unordered-iter    any std::unordered_{map,set,multimap,multiset}<...>
                    spelled in src/. Hash order is unspecified, so every such
                    container needs an allow stating why nothing
                    order-sensitive ever walks it (lookup only, or sorted
                    before use).
  pointer-key-order an ordered std::{map,set,multimap,multiset} whose first
                    template argument is a pointer: it iterates in address
                    order, which changes between runs and machines.

Escape hatch: a comment on the flagged line containing
`lint:allow(<rule>[, <rule>...])`, followed by the reason. Comments and
string/char literals are masked before matching, so prose never fires and
only genuine comment text can carry an allow.

Usage: tools/determinism_lint.py [repo-root]   (exit 1 on findings)
"""

import os
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
EXTENSIONS = (".h", ".cc", ".cpp")
SKIP_DIRS = {"build"}

# Per-rule path prefixes (relative, '/'-separated). A rule in SCOPE checks
# only files under one of its prefixes; a rule in WHITELIST skips files under
# one of its prefixes.
#
# src/trace/ is intentionally NOT whitelisted for any rule: trace events carry
# only sim-time state and sampling is a pure uid hash, so a traced run must be
# bit-identical to an untraced one. If tracing code trips this lint, fix the
# tracing code.
SCOPE = {
    "unordered-iter": ("src/",),
}
WHITELIST = {
    "random-device": ("src/util/rng.h",),
    "wall-clock": ("src/exp/",),
}

ORDERED_CONTAINER_RE = re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<")
POINTER_TYPE_RE = re.compile(r"\*\s*(?:const\s*)?$")


def pointer_keyed(code):
    """True when an ordered container on this line has a pointer first
    template argument. Only the top-level first argument counts, so
    std::map<int, Node*> and std::map<std::pair<int, Node*>, int> are fine."""
    for m in ORDERED_CONTAINER_RE.finditer(code):
        depth = 0
        end = len(code)
        for i in range(m.end(), len(code)):
            c = code[i]
            if c in "<([":
                depth += 1
            elif c in ">)]":
                if depth == 0:
                    end = i
                    break
                depth -= 1
            elif c == "," and depth == 0:
                end = i
                break
        if POINTER_TYPE_RE.search(code[m.end():end].strip()):
            return True
    return False


RULES = (
    ("rand", re.compile(r"(?<![\w:.>])s?rand\s*\(").search,
     "libc rand()/srand() is unseeded global state; use dibs::Rng"),
    ("random-device", re.compile(r"\brandom_device\b").search,
     "std::random_device draws hardware entropy; seed dibs::Rng instead"),
    ("wall-clock",
     re.compile(
         r"\b(?:system_clock|steady_clock|high_resolution_clock)\b").search,
     "wall-clock time must not feed simulation state; use Simulator::Now()"),
    ("unordered-iter",
     re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\s*<").search,
     "hash-ordered container: allow it with the reason nothing "
     "order-sensitive iterates it, or use an ordered one"),
    ("pointer-key-order", pointer_keyed,
     "ordered container keyed by a pointer iterates in address order; "
     "key it by a stable id"),
)

ALLOW_RE = re.compile(r"lint:allow\(\s*([\w-]+(?:\s*,\s*[\w-]+)*)\s*\)")


class ScannedSource:
    """Per-line code text (comments/literals masked) plus allow annotations."""

    def __init__(self, code_lines, allows):
        self.code_lines = code_lines  # list[str], 0-indexed
        self.allows = allows          # dict[int lineno(1-based) -> set[str]]

    def code(self, lineno):
        """Masked code text of 1-based `lineno` ('' past EOF)."""
        if 1 <= lineno <= len(self.code_lines):
            return self.code_lines[lineno - 1]
        return ""

    def allowed(self, lineno, rule):
        return rule in self.allows.get(lineno, ())


def scan(text):
    """Splits `text` into masked code lines + lint:allow map.

    Handles line comments, block comments (multi-line), string literals
    (with escapes), char literals, and raw strings (R"delim(...)delim").
    Comment and literal bodies become spaces in the code view, so line and
    column numbers survive; lint:allow is read only from comment text, and
    the whole trailing comment after it stays masked.
    """
    code_lines = []
    allows = {}
    comment_chunks = {}  # lineno -> list of comment text on that line

    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_delim = ""

    for lineno, line in enumerate(text.splitlines(), start=1):
        out = []
        i = 0
        n = len(line)
        comment_text = []
        if state == LINE_COMMENT:
            state = NORMAL  # line comments never span lines
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if state == NORMAL:
                if c == "/" and nxt == "/":
                    state = LINE_COMMENT
                    comment_text.append(line[i + 2:])
                    out.append(" " * (n - i))
                    i = n
                elif c == "/" and nxt == "*":
                    state = BLOCK_COMMENT
                    out.append("  ")
                    i += 2
                elif c == '"':
                    # Raw string? R"delim( ... )delim", with optional
                    # u8/u/U/L encoding prefix before the R.
                    if re.search(r"(?:\b|^)(?:u8|[uUL])?R$", line[:i]):
                        rest = line[i + 1:]
                        paren = rest.find("(")
                        if 0 <= paren <= 16:
                            raw_delim = ")" + rest[:paren] + '"'
                            state = RAW_STRING
                            out.append('"' + " " * (paren + 1))
                            i += 1 + paren + 1
                            continue
                    state = STRING
                    out.append('"')
                    i += 1
                elif c == "'":
                    state = CHAR
                    out.append("'")
                    i += 1
                else:
                    out.append(c)
                    i += 1
            elif state == BLOCK_COMMENT:
                end = line.find("*/", i)
                if end < 0:
                    comment_text.append(line[i:])
                    out.append(" " * (n - i))
                    i = n
                else:
                    comment_text.append(line[i:end])
                    out.append(" " * (end - i + 2))
                    i = end + 2
                    state = NORMAL
            elif state == STRING:
                if c == "\\":
                    out.append("  ")
                    i += 2
                elif c == '"':
                    out.append('"')
                    i += 1
                    state = NORMAL
                else:
                    out.append(" ")
                    i += 1
            elif state == CHAR:
                if c == "\\":
                    out.append("  ")
                    i += 2
                elif c == "'":
                    out.append("'")
                    i += 1
                    state = NORMAL
                else:
                    out.append(" ")
                    i += 1
            elif state == RAW_STRING:
                end = line.find(raw_delim, i)
                if end < 0:
                    out.append(" " * (n - i))
                    i = n
                else:
                    out.append(" " * (end - i) + raw_delim[-1])
                    i = end + len(raw_delim)
                    state = NORMAL
            else:  # pragma: no cover - LINE_COMMENT handled at loop top
                break
        # Unterminated string/char at EOL: treat as closed (lenient).
        if state in (STRING, CHAR):
            state = NORMAL
        code_lines.append("".join(out)[:n])
        if comment_text:
            comment_chunks[lineno] = comment_text

    for lineno, chunks in comment_chunks.items():
        rules = set()
        for chunk in chunks:
            for m in ALLOW_RE.finditer(chunk):
                for rule in m.group(1).split(","):
                    rules.add(rule.strip())
        if rules:
            allows[lineno] = rules
    return ScannedSource(code_lines, allows)


def iter_source_files(root):
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    yield os.path.join(dirpath, name)


def applies(rule, relpath):
    if rule in SCOPE and not relpath.startswith(SCOPE[rule]):
        return False
    return not relpath.startswith(WHITELIST.get(rule, ()))


def lint_file(path, relpath, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        scanned = scan(f.read())
    for lineno, code in enumerate(scanned.code_lines, start=1):
        for rule, matches, message in RULES:
            if not matches(code):
                continue
            if not applies(rule, relpath):
                continue
            if scanned.allowed(lineno, rule):
                continue
            findings.append((relpath, lineno, rule, message))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = list(iter_source_files(root))
    if not files:
        print("determinism-lint: no source files found under %s" % root)
        return 2
    findings = []
    for path in files:
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        lint_file(path, relpath, findings)
    for relpath, lineno, rule, message in findings:
        print("%s:%d: [%s] %s" % (relpath, lineno, rule, message))
    if findings:
        print("determinism-lint: %d finding(s) in %d file(s) scanned" %
              (len(findings), len(files)))
        return 1
    print("determinism-lint: OK (%d files scanned)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
