"""Rule catalog for dibs-analyzer.

Each rule is a pure function Model -> list[Finding]; libclang never appears
here, so every rule kernel is unit-testable without a compiler (see
tests/analyzer/test_kernels.py). Register new rules in RULES.

Rule catalog (see DESIGN.md "Static analysis" for the contracts these prove):

  determinism-ast    Nondeterministic constructs on the simulation path,
                     resolved through typedefs / auto / members: iteration
                     over unordered containers, std::random_device,
                     wall-clock now() calls, libc rand()/srand().
                     Supersedes the retired regex rules in
                     tools/determinism_lint.py.
  pointer-key-order  Ordered std::map/std::set (multi- variants included)
                     keyed by a pointer: iteration order is address order,
                     which varies run to run, so any fold over such a
                     container breaks bit-identical replay. Use an id key,
                     or lint:allow with a written justification that the
                     order never escapes.
  observer-purity    Methods of TraceSink subclasses — every instrument: the
                     recorders, the ledger, the trace bus and its sinks —
                     (and everything they transitively call within the
                     repo) must not call non-const methods of the
                     simulation-state classes nor schedule simulator
                     events: that is what makes an instrumented run
                     bit-identical to a bare one. Constructors/destructors
                     are exempt (subscription happens there, before the
                     run).
  signal-safety      Nothing reachable from a registered signal handler
                     (sigaction/signal, sa_handler assignments) or from the
                     FlightRecorder dump entry point may allocate, throw, or
                     call a function outside the async-signal-safe
                     whitelist.
"""

import re
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Findings


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def key(self):
        return (self.rule, self.file, self.line, self.col, self.message)


# ---------------------------------------------------------------------------
# Configuration shared by the rules


class RuleConfig:
    # Classes whose subclasses are held to the purity contract.
    observer_bases = frozenset({"dibs::TraceSink"})

    # Simulation-state classes: calling a non-const method on any of these
    # from observer code mutates the simulated world.
    sim_state_classes = frozenset({
        "dibs::Simulator", "dibs::Network", "dibs::Port", "dibs::Packet",
        "dibs::SwitchNode", "dibs::HostNode", "dibs::Node", "dibs::Queue",
        # The overload guard mutates forwarding behavior (breaker state, TTL
        # clamp); GuardRecorder stays on the observer side of the line.
        "dibs::DetourGuard", "dibs::GuardFabric",
    })

    # Extra signal-safety roots beyond registered handlers: the documented
    # async-signal-safe dump entry point the crash handler drives.
    signal_roots = ("dibs::FlightRecorder::DumpToFd",)

    # Async-signal-safe whitelist (POSIX.1-2008 + the handful of mem/str
    # routines the encoder needs; glibc implements them signal-safely).
    signal_safe = frozenset({
        "write", "read", "open", "openat", "close", "lseek", "fsync",
        "fdatasync", "unlink", "rename", "raise", "kill", "_exit", "_Exit",
        "abort", "signal", "sigaction", "sigemptyset", "sigfillset",
        "sigaddset", "sigdelset", "sigprocmask", "getpid", "gettid",
        "time", "clock_gettime", "alarm", "strlen", "strcpy", "strncpy",
        "strcat", "strncat", "strcmp", "strncmp", "memcpy", "memmove",
        "memset", "memcmp", "__errno_location",
    })

    # Path prefixes (repo-relative, '/'-separated) where a determinism-ast
    # sub-check is expected: the seeded Rng wraps random_device-free entropy
    # in rng.h, and the sweep engine times itself off the simulation path.
    path_whitelists = {
        "random-device": ("src/util/rng.h",),
        "wall-clock": ("src/exp/",),
    }


UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
# Matches the qualified name of a wall-clock now() call, tolerating inline
# namespaces (libstdc++ spells steady_clock as std::chrono::_V2::steady_clock).
WALL_CLOCK_RE = re.compile(
    r"^std::(?:\w+::)*(?:system|steady|high_resolution)_clock::now$")
RAND_NAMES = frozenset({"rand", "srand", "std::rand", "std::srand"})

# Ordered associative containers, tolerating libc++/libstdc++ inline
# namespaces in canonical spellings (std::__1::map<...>).
ORDERED_ASSOC_RE = re.compile(
    r"\bstd::(?:__\w+::)?(multimap|multiset|map|set)\s*<")


def _path_allowed(cfg, check, path):
    # Rules run before the driver relativizes paths, so accept the whitelist
    # prefix either at the start (repo-relative) or after a '/' (absolute).
    p = path.replace("\\", "/")
    for prefix in cfg.path_whitelists.get(check, ()):
        if p.startswith(prefix) or "/" + prefix in p:
            return True
    return False


# ---------------------------------------------------------------------------
# Rule 1: determinism-ast


def rule_determinism_ast(model, cfg):
    findings = []
    for site in model.iterations:
        if UNORDERED_RE.search(site.canonical_type):
            findings.append(Finding(
                "determinism-ast", site.loc.file, site.loc.line, site.loc.col,
                "iteration over an unordered container (%s) is order-"
                "nondeterministic; use std::map/std::set or sort the keys "
                "first" % _short_type(site.canonical_type)))
    for var in model.vars:
        if RANDOM_DEVICE_RE.search(var.canonical_type) and \
                not _path_allowed(cfg, "random-device", var.loc.file):
            findings.append(Finding(
                "determinism-ast", var.loc.file, var.loc.line, var.loc.col,
                "std::random_device draws hardware entropy; seed dibs::Rng "
                "instead", symbol=var.name))
    for fn in model.functions.values():
        if not fn.in_repo:
            continue
        for call in fn.calls:
            if call.callee_qualified in RAND_NAMES:
                findings.append(Finding(
                    "determinism-ast", call.loc.file, call.loc.line,
                    call.loc.col,
                    "libc rand()/srand() is unseeded global state; use "
                    "dibs::Rng", symbol=fn.qualified))
            elif WALL_CLOCK_RE.match(call.callee_qualified) and \
                    not _path_allowed(cfg, "wall-clock", call.loc.file):
                findings.append(Finding(
                    "determinism-ast", call.loc.file, call.loc.line,
                    call.loc.col,
                    "wall-clock time (%s) must not feed simulation state; "
                    "use Simulator::Now()" % call.callee_qualified,
                    symbol=fn.qualified))
    return findings


# ---------------------------------------------------------------------------
# Rule 2: pointer-key-order


def split_template_args(type_str, start):
    """Top-level template args of the '<' at `start`; returns list[str]."""
    args = []
    depth = 1
    i = start + 1
    begin = i
    while i < len(type_str) and depth > 0:
        c = type_str[i]
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
            if depth == 0:
                args.append(type_str[begin:i].strip())
        elif c == "," and depth == 1:
            args.append(type_str[begin:i].strip())
            begin = i + 1
        i += 1
    return args


def ordered_pointer_key(type_str):
    """First ordered map/set occurrence keyed by a pointer; returns the key
    type string, or None."""
    for m in ORDERED_ASSOC_RE.finditer(type_str):
        if type_str[:m.start()].endswith("unordered_"):
            continue
        args = split_template_args(type_str, m.end() - 1)
        if not args:
            continue
        key = args[0].strip()
        # strip trailing cv-qualifiers on the pointer itself
        key = re.sub(r"\s*\b(?:const|volatile)\s*$", "", key)
        if key.endswith("*"):
            return key
    return None


def rule_pointer_key_order(model, cfg):
    findings = []
    for var in model.vars:
        if var.kind == "param":
            continue  # the container's own declaration carries the finding
        key = ordered_pointer_key(var.canonical_type)
        if key is not None:
            findings.append(Finding(
                "pointer-key-order", var.loc.file, var.loc.line, var.loc.col,
                "ordered container keyed by pointer type '%s': iteration "
                "order is address order, which differs between runs; key by "
                "a stable id instead" % key, symbol=var.name))
    return findings


# ---------------------------------------------------------------------------
# Call-graph reachability shared by rules 3 and 4


def _reachable(model, root_usrs, recurse_pred):
    """BFS over the merged call graph. Yields (fn, root_qualified) for every
    visited function definition; recursion into a callee is gated on
    `recurse_pred(callee FunctionInfo)`."""
    visited = set()
    stack = [(usr, model.functions[usr].qualified)
             for usr in root_usrs if usr in model.functions]
    while stack:
        usr, root = stack.pop()
        if usr in visited:
            continue
        visited.add(usr)
        fn = model.functions[usr]
        yield fn, root
        for call in fn.calls:
            callee = model.functions.get(call.callee_usr)
            if callee is not None and callee.is_definition and \
                    call.callee_usr not in visited and recurse_pred(callee):
                stack.append((call.callee_usr, root))


# ---------------------------------------------------------------------------
# Rule 3: observer-purity


def rule_observer_purity(model, cfg):
    observer_classes = {
        q for q in model.records
        if q not in cfg.observer_bases and
        model.derives_from(q, cfg.observer_bases)
    }
    if not observer_classes:
        return []
    roots = [fn.usr for fn in model.functions.values()
             if fn.kind == "method" and fn.is_definition and
             fn.class_qualified in observer_classes]
    findings = []
    seen = set()
    # Recurse through repo-local helpers only: a call INTO a sim-state class
    # is the violation boundary, not something to traverse.
    for fn, root in _reachable(
            model, roots,
            lambda callee: callee.in_repo and
            callee.class_qualified not in cfg.sim_state_classes):
        for call in fn.calls:
            if not call.callee_is_method or call.callee_is_const:
                continue
            if call.callee_class not in cfg.sim_state_classes:
                continue
            # Assignment into an observer's OWN sim-typed member (e.g. a
            # buffered Packet copy) is pure; cindex does not expose the
            # receiver, so exempt operator= rather than false-positive it.
            if call.callee_name == "operator=":
                continue
            if call.loc in seen:
                continue
            seen.add(call.loc)
            if call.callee_name.startswith("Schedule") or \
                    call.callee_name == "Cancel":
                what = "schedules/cancels simulator events"
            else:
                what = "calls non-const %s" % call.callee_qualified
            findings.append(Finding(
                "observer-purity", call.loc.file, call.loc.line, call.loc.col,
                "observer code %s: observers must leave the simulated world "
                "untouched (reached from %s via %s)"
                % (what, root, fn.qualified), symbol=fn.qualified))
    return findings


# ---------------------------------------------------------------------------
# Rule 4: signal-safety


def rule_signal_safety(model, cfg):
    root_usrs = {reg.func_usr for reg in model.handler_regs}
    for fn in model.functions.values():
        if fn.qualified in cfg.signal_roots:
            root_usrs.add(fn.usr)
    if not root_usrs:
        return []

    findings = []
    seen = set()

    def report(loc, message, symbol):
        key = (loc, message)
        if key not in seen:
            seen.add(key)
            findings.append(Finding(
                "signal-safety", loc.file, loc.line, loc.col, message,
                symbol=symbol))

    # BFS carrying an anchor: once the walk leaves repo code (into a
    # header-defined std:: body, say), findings keep pointing at the repo
    # call site that crossed the boundary, not at a system header.
    visited = set()
    stack = []
    for usr in root_usrs:
        fn = model.functions.get(usr)
        if fn is not None:
            stack.append((usr, fn.qualified, None))
    while stack:
        usr, root, anchor = stack.pop()
        if usr in visited:
            continue
        visited.add(usr)
        fn = model.functions[usr]
        here = None if fn.in_repo else anchor

        def anchored(loc):
            return here if here is not None else loc

        for loc in fn.news:
            at = anchored(loc)
            report(at, "allocation (new/delete) reachable from signal "
                   "handler %s via %s; the crash path must not touch the "
                   "heap" % (root, fn.qualified), fn.qualified)
        for loc in fn.throws:
            at = anchored(loc)
            report(at, "throw reachable from signal handler %s via %s; "
                   "unwinding out of a signal frame is undefined"
                   % (root, fn.qualified), fn.qualified)
        for call in fn.calls:
            callee = model.functions.get(call.callee_usr)
            if callee is not None and callee.is_definition:
                if call.callee_usr not in visited:
                    stack.append((call.callee_usr, root, anchored(call.loc)))
                continue
            name = call.callee_name.lstrip(":")
            if name in cfg.signal_safe or name.startswith("__builtin"):
                continue
            at = anchored(call.loc)
            report(at, "call to '%s' reachable from signal handler %s via "
                   "%s, and '%s' is not on the async-signal-safe whitelist"
                   % (call.callee_qualified or name, root, fn.qualified,
                      name), fn.qualified)
    return findings


# ---------------------------------------------------------------------------


def _short_type(type_str, limit=80):
    return type_str if len(type_str) <= limit else type_str[:limit - 3] + "..."


RULES = {
    "determinism-ast": rule_determinism_ast,
    "pointer-key-order": rule_pointer_key_order,
    "observer-purity": rule_observer_purity,
    "signal-safety": rule_signal_safety,
}


def run_rules(model, cfg=None, rules=None):
    cfg = cfg or RuleConfig()
    findings = []
    for name in (rules or sorted(RULES)):
        findings.extend(RULES[name](model, cfg))
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings
