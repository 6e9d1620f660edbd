#!/usr/bin/env python3
"""dibs-analyzer: compile-commands-driven semantic lint for the DIBS tree.

Proves, at the AST/call-graph level, the contracts the runtime checkers can
only spot-check: determinism (rule determinism-ast), address-order
nondeterminism (pointer-key-order), observer purity (observer-purity), and
crash-handler async-signal-safety (signal-safety). See rules.py for the
catalog and DESIGN.md "Static analysis" for how the rules relate to
DIBS_VALIDATE and the flight-recorder crash dumps.

Usage:
  tools/analyzer/dibs_analyzer.py [-p BUILD_DIR | --compile-commands FILE]
                                  [--baseline FILE] [--update-baseline]
                                  [--rules r1,r2] [--json OUT]
                                  [--require-libclang] [--skip-exit-code N]
                                  [paths ...]

  paths        repo-relative prefixes to analyze/report (default: src).
               Controls BOTH which compile commands are parsed and which
               files findings may be reported in.

Exit codes: 0 clean (or skipped: libclang unavailable), 1 findings,
2 configuration error.

Suppression, in order:
  1. `// lint:allow(<rule>)` on the flagged line (shared with
     tools/determinism_lint.py — identical comment parsing via
     source_text.py);
  2. the checked-in baseline (tools/analyzer/baseline.json) for
     grandfathered findings; refresh with --update-baseline. Policy: fix,
     don't baseline.
"""

import argparse
import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from analyzer import baseline as baseline_mod
    from analyzer import frontend
    from analyzer import rules as rules_mod
    from analyzer import source_text
else:
    from . import baseline as baseline_mod
    from . import frontend
    from . import rules as rules_mod
    from . import source_text

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baseline.json")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="dibs-analyzer", add_help=True)
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build tree containing compile_commands.json")
    ap.add_argument("--compile-commands", default=None,
                    help="explicit path to compile_commands.json")
    ap.add_argument("--root", default=REPO_ROOT,
                    help="repo root (default: this script's repo)")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write a machine-readable findings report here")
    ap.add_argument("--require-libclang", action="store_true",
                    help="fail (exit 2) instead of skipping when libclang "
                         "is unavailable")
    ap.add_argument("--skip-exit-code", type=int, default=0,
                    help="exit code when libclang is unavailable (ctest "
                         "uses 77)")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("paths", nargs="*", default=[],
                    help="path prefixes to analyze (default: src)")
    return ap.parse_args(argv)


def relpath(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def main(argv=None):
    args = parse_args(argv)
    root = os.path.realpath(args.root)
    scopes = [p.rstrip("/") for p in (args.paths or ["src"])]

    cc_path = args.compile_commands
    if cc_path is None:
        build_dir = args.build_dir or os.path.join(root, "build")
        cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(cc_path):
        print("dibs-analyzer: ERROR — no compilation database at %s "
              "(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON, the "
              "top-level CMakeLists does this)" % cc_path, file=sys.stderr)
        return 2

    cindex, reason = frontend.load_libclang()
    if cindex is None:
        print("dibs-analyzer: SKIP — %s" % reason)
        print("dibs-analyzer: semantic rules not checked; the textual "
              "pre-pass (tools/determinism_lint.py) still ran if CI invoked "
              "it. CI images install libclang.")
        if args.require_libclang:
            return 2
        return args.skip_exit_code

    def in_scope(rel):
        return any(s in (".", "") or rel == s or rel.startswith(s + "/")
                   for s in scopes)

    entries = [(src, cargs)
               for src, cargs in frontend.load_compile_commands(cc_path)
               if in_scope(relpath(src, root))]
    if not entries:
        print("dibs-analyzer: ERROR — no compile commands matched scope %s"
              % scopes, file=sys.stderr)
        return 2

    def progress(i, n, source):
        if not args.quiet:
            print("dibs-analyzer: [%d/%d] %s"
                  % (i + 1, n, relpath(source, root)), file=sys.stderr)

    model, problems = frontend.lower_database(
        cindex, entries, root, on_progress=progress)
    for source, err in problems:
        print("dibs-analyzer: WARNING — %s: %s"
              % (relpath(source, root), err), file=sys.stderr)

    rule_names = args.rules.split(",") if args.rules else None
    if rule_names:
        unknown = [r for r in rule_names if r not in rules_mod.RULES]
        if unknown:
            print("dibs-analyzer: ERROR — unknown rule(s): %s (have: %s)"
                  % (", ".join(unknown), ", ".join(sorted(rules_mod.RULES))),
                  file=sys.stderr)
            return 2

    findings = rules_mod.run_rules(model, rules=rule_names)

    # Normalize to repo-relative paths and keep only in-scope findings.
    scoped = []
    for f in findings:
        if not f.file.startswith(root + os.sep):
            continue
        f.file = relpath(f.file, root)
        if in_scope(f.file):
            scoped.append(f)

    # lint:allow suppression + line contexts for baseline matching.
    scanned_cache = {}

    def scanned_for(rel):
        if rel not in scanned_cache:
            try:
                scanned_cache[rel] = source_text.scan_file(
                    os.path.join(root, rel))
            except OSError:
                scanned_cache[rel] = source_text.scan("")
        return scanned_cache[rel]

    kept = []
    allowed = []
    contexts = {}
    for f in scoped:
        sc = scanned_for(f.file)
        contexts[(f.file, f.line)] = baseline_mod.context_of(sc, f.line)
        if sc.allowed(f.line, f.rule):
            allowed.append(f)
        else:
            kept.append(f)

    if args.update_baseline:
        baseline_mod.save(args.baseline, kept, contexts)
        print("dibs-analyzer: baseline updated with %d finding(s) -> %s"
              % (len(kept), args.baseline))
        return 0

    bl = baseline_mod.load(args.baseline)
    new, baselined, stale = baseline_mod.apply(kept, bl, contexts)

    for f in new:
        print("%s:%d:%d: [%s] %s" % (f.file, f.line, f.col, f.rule, f.message))
    if stale and not args.quiet:
        for rule, path, _ctx in stale:
            print("dibs-analyzer: note — stale baseline entry [%s] %s "
                  "(finding no longer fires; prune it)" % (rule, path),
                  file=sys.stderr)

    if args.json_out:
        report = {
            "files_analyzed": len(entries),
            "rules": sorted(rule_names or rules_mod.RULES),
            "findings": [vars(f) for f in new],
            "suppressed_allow": [vars(f) for f in allowed],
            "suppressed_baseline": [vars(f) for f in baselined],
            "stale_baseline_entries": [list(s) for s in stale],
        }
        with open(args.json_out, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=2)
            fp.write("\n")

    if new:
        print("dibs-analyzer: %d finding(s) (%d lint:allow'd, %d baselined) "
              "across %d TU(s)" % (len(new), len(allowed), len(baselined),
                                   len(entries)))
        return 1
    print("dibs-analyzer: OK — %d TU(s), rules: %s (%d lint:allow'd, "
          "%d baselined)" % (len(entries),
                             ",".join(sorted(rule_names or rules_mod.RULES)),
                             len(allowed), len(baselined)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
