#!/usr/bin/env python3
"""Determinism linter for the AgilePkgC fleet engine.

The engine's headline guarantee is that reports are byte-identical
across thread counts and shard layouts. That property dies quietly: an
unordered-container iteration leaking into a report sink, a wall-clock
read in a simulation path, a mutable global accumulating across runs.
This linter statically bans the construct families that historically
break bit-identity, over the translation units listed in
compile_commands.json plus every header under src/.

Rules live in tools/lint_rules.toml. Each rule carries its own path
scope and file allowlist; individual lines are waived with

    // lint:allow(rule-id) reason why this is deterministic

where the reason is mandatory — an allow without a reason is itself a
finding, so the waiver trail stays auditable.

Usage:
    lint_determinism.py                          # lint the tree
    lint_determinism.py --report lint_report.txt # also write a report
    lint_determinism.py --self-test tests/test_lint_corpus
                                                 # prove every rule fires

Exit codes: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - needs python >= 3.11
    sys.stderr.write("lint_determinism: python >= 3.11 required "
                     "(tomllib)\n")
    sys.exit(2)

ALLOW_RE = re.compile(r"lint:allow\(([a-z0-9-]+)\)\s*(.*?)\s*(?:\*/.*)?$")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;]*?>\s*[&*]?\s*(\w+)\s*"
    r"(?:;|=|\{|\)|,|APC_GUARDED_BY)")
UNORDERED_ALIAS_RE = re.compile(
    r"\b(?:using\s+(\w+)\s*=[^;]*\bunordered_(?:multi)?(?:map|set)\b"
    r"|typedef\s+[^;]*\bunordered_(?:multi)?(?:map|set)\b[^;]*?\s(\w+)\s*;)")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+(?:\s*=[^,;]*)?"
                           r"(?:\s*,\s*\w+(?:\s*=[^,;]*)?)*)\s*;")
FLOAT_NAME_RE = re.compile(r"(\w+)(?:\s*=[^,;]*)?")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:()]*:\s*(.+)\)")
ACCUM_RE = re.compile(r"\b(\w+)(?:\[[^\]]*\])?(?:\.\w+)?\s*[+\-]\s*=")
LOOP_OPEN_RE = re.compile(r"\b(?:for|while)\s*\(")
MUTABLE_GLOBAL_RE = re.compile(
    r"^\s*(?:inline\s+)?(?:static|thread_local)\s+"
    r"(?!const\b|constexpr\b|inline\s+const)"
    r"[\w:]+(?:\s*<[\w:,\s*&<>]*>)?(?:\s*[*&])?\s+(\w+)\s*(?:=|;|\{)")


def strip_code(text: str) -> list[str]:
    """Return per-line source with comments and literal contents blanked.

    Keeps line structure (so line numbers survive) and keeps quote
    characters (so regexes stay anchored), but erases everything inside
    // and block comments, string literals, and char literals — a banned
    token inside a comment or log string is not a finding.
    """
    out: list[str] = []
    state = "code"  # code | block | str | chr
    for raw in text.splitlines():
        buf: list[str] = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if state == "code":
                if c == "/" and nxt == "/":
                    break  # rest of line is a comment
                if c == "/" and nxt == "*":
                    state = "block"
                    buf.append("  ")
                    i += 2
                    continue
                if c == '"':
                    state = "str"
                    buf.append('"')
                    i += 1
                    continue
                if c == "'":
                    state = "chr"
                    buf.append("'")
                    i += 1
                    continue
                buf.append(c)
                i += 1
            elif state == "block":
                if c == "*" and nxt == "/":
                    state = "code"
                    buf.append("  ")
                    i += 2
                    continue
                buf.append(" ")
                i += 1
            elif state == "str":
                if c == "\\":
                    buf.append("  ")
                    i += 2
                    continue
                if c == '"':
                    state = "code"
                    buf.append('"')
                    i += 1
                    continue
                buf.append(" ")
                i += 1
            else:  # chr
                if c == "\\":
                    buf.append("  ")
                    i += 2
                    continue
                if c == "'":
                    state = "code"
                    buf.append("'")
                    i += 1
                    continue
                buf.append(" ")
                i += 1
        # Unterminated string/char literal at EOL: literals don't span
        # lines in this codebase; recover rather than poison the file.
        if state in ("str", "chr"):
            state = "code"
        out.append("".join(buf))
    return out


class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


class FileScan:
    """Per-file lexed view: raw lines, code lines, allows, loop spans."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.raw = text.splitlines()
        self.code = strip_code(text)
        # lint:allow markers by the line they waive: a marker waives its
        # own line, or — when it sits in a standalone comment — the
        # first code line after the comment block.
        self.allows: dict[int, tuple[str, str]] = {}
        for idx, line in enumerate(self.raw):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            target = idx
            if re.match(r"^\s*(//|/\*|\*)", line):
                target = idx + 1
                while target < len(self.raw) and \
                        re.match(r"^\s*(//|/\*|\*)", self.raw[target]):
                    target += 1
            self.allows[target] = (m.group(1), m.group(2))
        self.in_loop = self._loop_spans()

    def _loop_spans(self) -> list[bool]:
        """True per line when inside a for/while body.

        Brace-tracked for braced bodies; a brace-less body ends at the
        first ';' outside parentheses (good enough for the one-statement
        bodies this codebase writes).
        """
        flags = [False] * len(self.code)
        depth = 0
        loop_depths: list[int] = []
        pending = 0  # loop headers still awaiting a body
        paren = 0
        for idx, line in enumerate(self.code):
            if loop_depths or pending:
                flags[idx] = True
            i = 0
            while i < len(line):
                m = LOOP_OPEN_RE.match(line, i)
                if m:
                    pending += 1
                    paren += 1
                    flags[idx] = True
                    i = m.end()
                    continue
                c = line[i]
                if c == "(":
                    paren += 1
                elif c == ")":
                    paren = max(0, paren - 1)
                elif c == "{":
                    depth += 1
                    if pending:
                        loop_depths.append(depth)
                        pending -= 1
                elif c == "}":
                    if loop_depths and loop_depths[-1] == depth:
                        loop_depths.pop()
                    depth = max(0, depth - 1)
                elif c == ";" and pending and paren == 0:
                    pending -= 1
                i += 1
        return flags


class Linter:
    def __init__(self, root: Path, config: dict):
        self.root = root
        self.rules: dict[str, dict] = config.get("rules", {})
        self.scans: dict[Path, FileScan] = {}
        self.includes: dict[Path, list[Path]] = {}
        self.findings: list[Finding] = []
        self.bad_allows: list[Finding] = []
        self.used_allows: set[tuple[Path, int]] = set()

    # ---- file loading ----------------------------------------------------

    def load(self, path: Path) -> FileScan | None:
        path = path.resolve()
        if path in self.scans:
            return self.scans[path]
        try:
            text = path.read_text(errors="replace")
        except OSError:
            return None
        scan = FileScan(path, text)
        self.scans[path] = scan
        incs = []
        for line in scan.raw:
            m = INCLUDE_RE.match(line)
            if m:
                cand = self.root / "src" / m.group(1)
                if cand.is_file():
                    incs.append(cand.resolve())
        self.includes[path] = incs
        return scan

    def include_closure(self, path: Path) -> list[Path]:
        seen: set[Path] = set()
        stack = [path.resolve()]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            if self.load(p) is not None:
                stack.extend(self.includes.get(p, []))
        return sorted(seen)

    # ---- symbol tables ---------------------------------------------------

    def unordered_names(self, path: Path) -> set[str]:
        """Identifiers declared (here or in project includes) as
        unordered containers, including through using/typedef aliases."""
        names: set[str] = set()
        aliases: set[str] = set()
        closure = self.include_closure(path)
        for p in closure:
            scan = self.scans.get(p)
            if not scan:
                continue
            for line in scan.code:
                for m in UNORDERED_ALIAS_RE.finditer(line):
                    aliases.add(m.group(1) or m.group(2))
        for p in closure:
            scan = self.scans.get(p)
            if not scan:
                continue
            for line in scan.code:
                for m in UNORDERED_DECL_RE.finditer(line):
                    names.add(m.group(1))
                for alias in aliases:
                    dm = re.search(
                        rf"\b{re.escape(alias)}\s+(\w+)\s*(?:;|=|\{{)",
                        line)
                    if dm:
                        names.add(dm.group(1))
        return names

    def float_names(self, scan: FileScan) -> set[str]:
        names: set[str] = set()
        for line in scan.code:
            for m in FLOAT_DECL_RE.finditer(line):
                for dm in FLOAT_NAME_RE.finditer(m.group(1)):
                    names.add(dm.group(1))
            for m in re.finditer(r"\bvector\s*<\s*(?:double|float)\s*>"
                                 r"(?:\s*&)?\s+(\w+)", line):
                names.add(m.group(1))
        return names

    # ---- finding emission (allow-aware) ----------------------------------

    def emit(self, scan: FileScan, idx: int, rule: str, msg: str):
        allow = scan.allows.get(idx)
        if allow and allow[0] == rule:
            self.used_allows.add((scan.path, idx))
            if not allow[1]:
                self.bad_allows.append(Finding(
                    scan.path, idx + 1, rule,
                    "lint:allow without a reason — explain why this "
                    "is deterministic"))
            return
        self.findings.append(Finding(scan.path, idx + 1, rule, msg))

    def rule_applies(self, rule: str, path: Path) -> bool:
        cfg = self.rules.get(rule)
        if cfg is None:
            return False
        rel = path.relative_to(self.root).as_posix() \
            if path.is_relative_to(self.root) else path.as_posix()
        paths = cfg.get("paths", [])
        if paths and not any(rel.startswith(p) for p in paths):
            return False
        for allowed in cfg.get("allow_files", []):
            if rel == allowed:
                return False
        return True

    # ---- rules -----------------------------------------------------------

    def check_unordered_iteration(self, scan: FileScan):
        rule = "unordered-iteration"
        names = self.unordered_names(scan.path)
        for idx, line in enumerate(scan.code):
            m = RANGE_FOR_RE.search(line)
            expr = None
            if m:
                expr = m.group(1)
            elif idx + 1 < len(scan.code) and \
                    re.search(r"\bfor\s*\([^;:()]*:\s*$", line):
                expr = scan.code[idx + 1]
            if expr is not None:
                if "unordered_" in expr or any(
                        re.search(rf"\b{re.escape(n)}\s*\)?\s*$",
                                  expr.strip()) for n in names):
                    self.emit(scan, idx, rule,
                              "iteration over an unordered container "
                              "— hash order is not deterministic "
                              "across platforms or runs; sort first "
                              "or use an ordered structure")
                    continue
            for n in names:
                if re.search(rf"\b{re.escape(n)}\s*\.\s*c?begin\s*\(",
                             line):
                    self.emit(scan, idx, rule,
                              f"iterator walk over unordered "
                              f"container '{n}' — hash order leaks "
                              f"into results; sort first")
                    break

    def check_regex_rule(self, scan: FileScan, rule: str,
                         patterns: list[tuple[re.Pattern, str]]):
        for idx, line in enumerate(scan.code):
            for pat, msg in patterns:
                if pat.search(line):
                    self.emit(scan, idx, rule, msg)
                    break

    def check_mutable_global(self, scan: FileScan):
        rule = "mutable-global"
        for idx, line in enumerate(scan.code):
            if "static_assert" in line or "static_cast" in line:
                continue
            m = MUTABLE_GLOBAL_RE.match(line)
            if m:
                self.emit(scan, idx, rule,
                          f"mutable static/thread_local state '"
                          f"{m.group(1)}' — cross-run state breaks "
                          f"replay determinism and cross-thread state "
                          f"breaks layout invariance")
            elif re.match(r"^\s*thread_local\b", line):
                self.emit(scan, idx, rule,
                          "thread_local state — results must not "
                          "depend on which thread ran the work")

    def check_float_accum(self, scan: FileScan):
        rule = "float-accum"
        names = self.float_names(scan)
        for idx, line in enumerate(scan.code):
            if not scan.in_loop[idx]:
                continue
            for m in ACCUM_RE.finditer(line):
                if m.group(1) in names:
                    self.emit(scan, idx, rule,
                              f"floating-point accumulation into "
                              f"'{m.group(1)}' inside a loop — "
                              f"FP addition is not associative, so "
                              f"the shape of the reduction must be "
                              f"layout-invariant; use the "
                              f"stats/reduce.h fixed-shape tree or "
                              f"prove the iteration order fixed")
                    break

    def check_pointer_key_order(self, scan: FileScan):
        rule = "pointer-key-order"
        pats = [
            (re.compile(r"\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<"
                        r"\s*(?:const\s+)?[\w:]+\s*\*"),
             "ordered container keyed by pointer — allocation "
             "addresses vary run to run, so the order is not "
             "reproducible; key by a stable id instead"),
            (re.compile(r"\bstd\s*::\s*less\s*<\s*(?:const\s+)?[\w:]+"
                        r"\s*\*\s*>"),
             "pointer comparison as an ordering — addresses vary run "
             "to run; compare stable ids instead"),
        ]
        for idx, line in enumerate(scan.code):
            if re.search(r"\bunordered_", line):
                continue  # hashing pointers is the other rule's beat
            for pat, msg in pats:
                if pat.search(line):
                    self.emit(scan, idx, rule, msg)
                    break

    WALL_CLOCK_PATTERNS = [
        (re.compile(r"\bchrono\s*::\s*(?:system_clock|steady_clock|"
                    r"high_resolution_clock)\b"),
         "host clock read — simulated time comes from sim::Tick; wall "
         "clocks differ run to run"),
        (re.compile(r"\b(?:time|clock)\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
         "libc wall/CPU clock read in a simulation path"),
        (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|"
                    r"strftime|ctime)\s*\("),
         "libc time API in a simulation path"),
    ]

    RNG_PATTERNS = [
        (re.compile(r"\b(?:rand|srand|rand_r)\s*\("),
         "libc RNG — unseeded ambient randomness breaks replay; use "
         "the seeded sim::Rng streams"),
        (re.compile(r"\bstd\s*::\s*random_device\b|\brandom_device\s+"),
         "std::random_device — hardware entropy is unreplayable; "
         "derive streams from the run seed"),
        (re.compile(r"\bdefault_random_engine\b"),
         "default_random_engine — implementation-defined engine "
         "varies across standard libraries; use the explicit seeded "
         "engine in sim/rng.h"),
    ]

    FAULT_RNG_PATTERNS = [
        (re.compile(r"\bsim\s*::\s*Rng\b|\bRng\s+\w+\s*[({]|"
                    r"#\s*include\s*[\"<]sim/rng\.h"),
         "stateful sim::Rng in the fault subsystem — the failure "
         "schedule must be a pure function of (seed, entity, kind, "
         "counter); use the counter-based substream API in "
         "fault/fault.h"),
        (re.compile(r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
                    r"ranlux\w+|knuth_b)\b"),
         "<random> engine in the fault subsystem — stateful draw "
         "order varies with layout; use counter-based substreams"),
        (re.compile(r"\b(?:uniform_(?:int|real)_distribution|"
                    r"exponential_distribution|normal_distribution|"
                    r"poisson_distribution|bernoulli_distribution)\b"),
         "<random> distribution in the fault subsystem — consumes a "
         "stateful engine; use substreamU01/substreamExp instead"),
    ]

    STD_FUNCTION_PATTERNS = [
        (re.compile(r"\bstd\s*::\s*function\b"),
         "std::function — the simulator's one callable type is "
         "sim::InplaceFunction; take a sim::Callback (sim/callback.h)"),
        (re.compile(r"#\s*include\s*<functional>"),
         "<functional> include — it brings std::function back; use "
         "sim/callback.h"),
    ]

    # ---- driver ----------------------------------------------------------

    def lint_file(self, path: Path):
        scan = self.load(path)
        if scan is None:
            return
        if self.rule_applies("unordered-iteration", path):
            self.check_unordered_iteration(scan)
        if self.rule_applies("wall-clock", path):
            self.check_regex_rule(scan, "wall-clock",
                                  self.WALL_CLOCK_PATTERNS)
        if self.rule_applies("ambient-rng", path):
            self.check_regex_rule(scan, "ambient-rng", self.RNG_PATTERNS)
        if self.rule_applies("mutable-global", path):
            self.check_mutable_global(scan)
        if self.rule_applies("float-accum", path):
            self.check_float_accum(scan)
        if self.rule_applies("pointer-key-order", path):
            self.check_pointer_key_order(scan)
        if self.rule_applies("fault-rng", path):
            self.check_regex_rule(scan, "fault-rng",
                                  self.FAULT_RNG_PATTERNS)
        if self.rule_applies("std-function", path):
            self.check_regex_rule(scan, "std-function",
                                  self.STD_FUNCTION_PATTERNS)

    def check_stale_allows(self):
        """An allow that waives nothing is dead weight — flag it so the
        escape-hatch inventory can only shrink."""
        for path, scan in self.scans.items():
            for idx, (rule, _reason) in scan.allows.items():
                if rule not in self.rules:
                    self.bad_allows.append(Finding(
                        path, idx + 1, rule,
                        f"lint:allow names unknown rule '{rule}'"))
                elif (path, idx) not in self.used_allows and \
                        self.rule_applies(rule, path):
                    self.bad_allows.append(Finding(
                        path, idx + 1, rule,
                        "stale lint:allow — the waived construct is "
                        "gone; remove the marker"))


def collect_files(root: Path, compile_commands: Path | None) -> list[Path]:
    files: set[Path] = set()
    if compile_commands and compile_commands.is_file():
        for entry in json.loads(compile_commands.read_text()):
            f = Path(entry["file"])
            if not f.is_absolute():
                f = Path(entry["directory"]) / f
            f = f.resolve()
            if f.is_file() and root.resolve() in f.parents:
                files.add(f)
    for pattern in ("src/**/*.h", "src/**/*.cc", "bench/**/*.h",
                    "bench/**/*.cc", "examples/**/*.cpp"):
        files.update(p.resolve() for p in root.glob(pattern))
    return sorted(files)


def run_self_test(corpus: Path, config: dict) -> int:
    """Prove each rule fires on its known-bad file and that lint:allow
    suppresses findings (while an unexplained allow is still caught)."""
    failures = []
    rule_ids = list(config.get("rules", {}))
    for rule in rule_ids:
        bad = corpus / f"bad_{rule.replace('-', '_')}.cc"
        if not bad.is_file():
            failures.append(f"missing corpus file for rule: {bad}")
            continue
        linter = Linter(corpus, config)
        # Self-test scope: every rule applies to the corpus root.
        for cfg in linter.rules.values():
            cfg["paths"] = []
            cfg["allow_files"] = []
        linter.lint_file(bad)
        fired = {f.rule for f in linter.findings}
        if rule not in fired:
            failures.append(f"rule '{rule}' did NOT fire on {bad.name} "
                            f"(fired: {sorted(fired) or 'nothing'})")
        else:
            print(f"  ok: {rule} fires on {bad.name}")
    # Allowed file: every violation waived with a reason -> clean.
    allowed = corpus / "allowed_ok.cc"
    if allowed.is_file():
        linter = Linter(corpus, config)
        for cfg in linter.rules.values():
            cfg["paths"] = []
            cfg["allow_files"] = []
        linter.lint_file(allowed)
        linter.check_stale_allows()
        if linter.findings or linter.bad_allows:
            failures.append(
                "allowed_ok.cc should lint clean, got: " + "; ".join(
                    str(f) for f in linter.findings + linter.bad_allows))
        else:
            print("  ok: lint:allow with a reason suppresses findings")
    else:
        failures.append(f"missing corpus file: {allowed}")
    # Unexplained allow: the waiver itself must be flagged.
    unexplained = corpus / "bad_allow_without_reason.cc"
    if unexplained.is_file():
        linter = Linter(corpus, config)
        for cfg in linter.rules.values():
            cfg["paths"] = []
            cfg["allow_files"] = []
        linter.lint_file(unexplained)
        if not linter.bad_allows:
            failures.append("bad_allow_without_reason.cc: reasonless "
                            "lint:allow was not flagged")
        else:
            print("  ok: lint:allow without a reason is itself flagged")
    else:
        failures.append(f"missing corpus file: {unexplained}")
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test passed: {len(rule_ids)} rules + allow semantics")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__)
                    .resolve().parent.parent)
    ap.add_argument("--rules", type=Path, default=None,
                    help="rules TOML (default: tools/lint_rules.toml)")
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compile_commands.json to enumerate TUs from")
    ap.add_argument("--report", type=Path, default=None,
                    help="also write findings to this file")
    ap.add_argument("--self-test", type=Path, default=None,
                    metavar="CORPUS_DIR",
                    help="run the known-bad corpus instead of the tree")
    ap.add_argument("files", nargs="*", type=Path,
                    help="lint only these files (default: whole tree)")
    args = ap.parse_args()

    rules_path = args.rules or args.root / "tools" / "lint_rules.toml"
    try:
        config = tomllib.loads(rules_path.read_text())
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"lint_determinism: cannot read rules {rules_path}: {e}",
              file=sys.stderr)
        return 2

    if args.self_test:
        return run_self_test(args.self_test, config)

    cc = args.compile_commands
    if cc is None:
        default_cc = args.root / "build" / "compile_commands.json"
        cc = default_cc if default_cc.is_file() else None

    files = [f.resolve() for f in args.files] if args.files else \
        collect_files(args.root, cc)

    linter = Linter(args.root, config)
    for f in files:
        linter.lint_file(f)
    linter.check_stale_allows()

    all_findings = linter.findings + linter.bad_allows
    all_findings.sort(key=lambda f: (str(f.path), f.line))
    lines = [str(f) for f in all_findings]
    for line in lines:
        print(line)
    if args.report:
        body = "\n".join(lines) + ("\n" if lines else "")
        args.report.write_text(
            body if lines else "determinism lint: clean\n")
    n_allows = len(linter.used_allows)
    if all_findings:
        print(f"\ndeterminism lint: {len(all_findings)} finding(s) "
              f"across {len(files)} files ({n_allows} allow(s) in "
              f"effect)", file=sys.stderr)
        return 1
    print(f"determinism lint: clean ({len(files)} files, "
          f"{n_allows} explained allow(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
