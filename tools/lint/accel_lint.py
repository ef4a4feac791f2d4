#!/usr/bin/env python3
"""accel-lint: project-specific determinism and hot-path lint for the
Accelerometer reproduction.

The repo's core correctness claim is determinism under concurrency:
every experiment is a pure function of its seed, and parallel fan-out
must stay bit-identical to the serial path. This linter enforces the
source-level discipline that claim rests on:

  banned-random      no rand()/srand()/std::random_device/std::mt19937
                     in simulation/model/stats code; all randomness
                     flows through util/rng.hh (seeded PCG32).
  banned-clock       no wall-clock reads (steady_clock::now, time(),
                     clock(), gettimeofday, ...) in simulation/model/
                     stats/kernel code; simulated time comes from the
                     event clock, wall time from util/wall_timer.hh.
  unordered-float-iter
                     no iteration over std::unordered_{map,set} that
                     feeds a floating-point accumulation; hash-order
                     is implementation-defined, so such reductions are
                     not reproducible across platforms or libstdc++
                     versions.
  fn-by-value        no by-value callable parameters (std::function,
                     sim::InlineFunction, sim::InlineCallback) in
                     function signatures; pass const& (borrow) or &&
                     (sink) so hot paths never pay a silent
                     type-erased copy or move.
  parfor-pushback    no push_back/emplace_back inside parallelFor
                     bodies; parallel loop bodies must write to
                     pre-sized slots indexed by loop index, which is
                     what makes results independent of worker count.
  header-standalone  every header under src/ compiles on its own
                     (IWYU-lite), so include order can never change
                     behaviour.

Any finding can be suppressed per line with a justification comment:

    // accel-lint: allow(<rule>) -- one-line reason

on the offending line or the line directly above it (for
header-standalone: anywhere in the header's first 15 lines).

Where the libclang Python bindings are importable they are used to
confirm fn-by-value candidates are real function parameters; otherwise
a token-level fallback (comment/string-stripped regex + bracket
matching) is used for everything. The fallback is deliberately
conservative and the fixture suite under tests/tools/ pins its
behaviour.

Exit status: 0 when clean, 1 when any unsuppressed finding remains,
2 on usage errors. --json writes a machine-readable report either way.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

# The source front end and the SARIF emitter are shared with
# tools/analyze.
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "analyze"))
import sarif_util  # noqa: E402
from source_frontend import (  # noqa: E402
    SUPPRESS_RE,
    Finding,
    audit_suppressions,
    collect_files,
    line_of,
    match_balanced,
    read_text,
    strip_comments_and_strings,
    suppressed_rules_by_line,
)

# ---------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------

# Directories (relative to the repo root) whose code must be free of
# ambient randomness and wall-clock reads. util/ is deliberately NOT in
# scope: util/rng.{hh,cc} and util/wall_timer.{hh,cc} are the two
# sanctioned owners of those effects.
DETERMINISM_SCOPE = (
    "src/sim",
    "src/faults",
    "src/microsim",
    "src/model",
    "src/stats",
    "src/workload",
    "src/kernels",
)

ALL_RULES = (
    "banned-random",
    "banned-clock",
    "unordered-float-iter",
    "fn-by-value",
    "parfor-pushback",
    "header-standalone",
)

RANDOM_PATTERNS = (
    (re.compile(r"(?<![\w.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w.>])random\s*\(\s*\)"), "random()"),
    (re.compile(r"(?<![\w.>])drand48\s*\("), "drand48()"),
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"std\s*::\s*(mt19937(_64)?|minstd_rand0?|ranlux\w+|"
                r"default_random_engine|knuth_b)\b"),
     "std <random> engine"),
)

CLOCK_PATTERNS = (
    (re.compile(r"(steady_clock|system_clock|high_resolution_clock)"
                r"\s*::\s*now\s*\("), "std::chrono clock read"),
    (re.compile(r"(?<![\w.:>])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.:>])clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
)

TOOL_NAME = "accel-lint"
TOOL_VERSION = "1.1"

RULE_DESCRIPTIONS = {
    "banned-random": "ambient randomness outside util/rng.hh breaks "
                     "seed-purity",
    "banned-clock": "wall-clock reads in simulation code bypass the "
                    "event clock",
    "unordered-float-iter": "hash-order iteration feeding a float "
                            "accumulation is not reproducible",
    "fn-by-value": "by-value callable parameters pay a type-erased "
                   "copy on every call",
    "parfor-pushback": "push_back in a parallelFor body orders "
                       "results by completion, not index",
    "header-standalone": "every header under src/ must compile on "
                         "its own",
}


# ---------------------------------------------------------------------
# Individual rules (token-level)
# ---------------------------------------------------------------------

def check_patterns(path, clean, allowed, rule, patterns, findings):
    for rx, what in patterns:
        for m in rx.finditer(clean):
            lineno = line_of(clean, m.start())
            sup = (rule in allowed.get(lineno, ()) or
                   rule in allowed.get(lineno - 1, ()))
            findings.append(Finding(
                path, lineno, rule,
                "%s is nondeterministic here; use util/rng.hh" % what
                if rule == "banned-random" else
                "%s bypasses the event clock; use util/wall_timer.hh "
                "or sim::EventQueue::now()" % what,
                suppressed=sup))


RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
FLOAT_ACCUM_RE = re.compile(r"[+\-*]=|\+\+")


def unordered_decl_names(clean):
    """Names of variables declared with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(clean):
        close = match_balanced(clean, clean.index("<", m.end() - 1),
                               "<", ">")
        if close is None:
            continue
        rest = clean[close:close + 160]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", rest)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def loop_body_span(clean, paren_close):
    """Span of the statement following a for(...) header."""
    i = paren_close
    n = len(clean)
    while i < n and clean[i] in " \t\n":
        i += 1
    if i >= n:
        return (i, i)
    if clean[i] == "{":
        end = match_balanced(clean, i, "{", "}")
        return (i, end if end is not None else n)
    end = clean.find(";", i)
    return (i, end + 1 if end != -1 else n)


def check_unordered_float_iter(path, clean, allowed, findings):
    decls = unordered_decl_names(clean)
    for m in RANGE_FOR_RE.finditer(clean):
        open_paren = clean.index("(", m.end() - 1)
        close = match_balanced(clean, open_paren, "(", ")")
        if close is None:
            continue
        header = clean[open_paren + 1:close - 1]
        if ";" in header or ":" not in header:
            continue  # classic for-loop or malformed
        range_expr = header.rsplit(":", 1)[1].strip()
        base = re.match(r"[A-Za-z_]\w*", range_expr)
        over_unordered = ("unordered_" in range_expr or
                          (base and base.group(0) in decls))
        if not over_unordered:
            continue
        body_start, body_end = loop_body_span(clean, close)
        body = clean[body_start:body_end]
        if not FLOAT_ACCUM_RE.search(body):
            continue
        lineno = line_of(clean, m.start())
        rule = "unordered-float-iter"
        sup = (rule in allowed.get(lineno, ()) or
               rule in allowed.get(lineno - 1, ()))
        findings.append(Finding(
            path, lineno, rule,
            "iteration over an unordered container feeds an "
            "accumulation; hash order is implementation-defined, so "
            "the reduction is not reproducible — iterate a sorted "
            "view or use an ordered container",
            suppressed=sup))


FN_RE = re.compile(
    r"(?:std\s*::\s*function|(?:\bsim\s*::\s*)?\bInlineFunction)\s*<")
# The void() alias has no template argument list of its own.
INLINE_CB_RE = re.compile(r"(?:\bsim\s*::\s*)?\bInlineCallback\b")
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "catch",
                    "sizeof", "decltype", "alignof", "noexcept"}


def enclosing_call_paren(clean, pos):
    """Offset of the nearest unmatched '(' before pos whose preceding
    token is an identifier (i.e. a signature/call paren), else None."""
    depth = 0
    i = pos - 1
    while i >= 0:
        c = clean[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if c == "(" and depth == 0:
                j = i - 1
                while j >= 0 and clean[j] in " \t\n":
                    j -= 1
                k = j
                while k >= 0 and (clean[k].isalnum() or clean[k] == "_"):
                    k -= 1
                ident = clean[k + 1:j + 1]
                if ident and not ident[0].isdigit() and \
                        ident not in CONTROL_KEYWORDS:
                    return i
                return None
            if depth == 0:
                return None
            depth -= 1
        elif c == ";":
            return None
        i -= 1
    return None


def fn_by_value_candidates(clean):
    """Offsets of each by-value-prone callable type mention: yields
    (start, end_of_type) for std::function<...>, InlineFunction<...>,
    and the sim::InlineCallback alias (which has no argument list)."""
    for m in FN_RE.finditer(clean):
        lt = clean.index("<", m.end() - 1)
        close = match_balanced(clean, lt, "<", ">")
        if close is not None:
            yield m.start(), close
    for m in INLINE_CB_RE.finditer(clean):
        yield m.start(), m.end()


def check_fn_by_value(path, clean, allowed, findings, ast_params=None):
    for start, close in fn_by_value_candidates(clean):
        rest = clean[close:]
        rm = re.match(r"\s*([&*]+)?\s*([A-Za-z_]\w*)?\s*([,)=])?", rest)
        if not rm or rm.group(1):
            continue  # reference/pointer: fine
        if not rm.group(2) or rm.group(3) is None:
            continue  # no declarator or not followed by , ) = — skip
        if enclosing_call_paren(clean, start) is None:
            continue  # local/member/alias declaration, not a parameter
        lineno = line_of(clean, start)
        if ast_params is not None and lineno not in ast_params:
            continue  # libclang says no ParmVarDecl on this line
        rule = "fn-by-value"
        sup = (rule in allowed.get(lineno, ()) or
               rule in allowed.get(lineno - 1, ()))
        findings.append(Finding(
            path, lineno, rule,
            "by-value callable parameter (std::function / "
            "sim::InlineFunction / sim::InlineCallback) pays a "
            "type-erased copy or move on every call; take const& "
            "(borrow) or && (sink)",
            suppressed=sup))


PARFOR_RE = re.compile(r"\bparallelFor\s*\(")
PUSHBACK_RE = re.compile(r"\.\s*(push_back|emplace_back)\s*\(")


def check_parfor_pushback(path, clean, allowed, findings):
    for m in PARFOR_RE.finditer(clean):
        open_paren = clean.index("(", m.end() - 1)
        close = match_balanced(clean, open_paren, "(", ")")
        if close is None:
            continue
        region = clean[open_paren:close]
        for pm in PUSHBACK_RE.finditer(region):
            lineno = line_of(clean, open_paren + pm.start())
            rule = "parfor-pushback"
            sup = (rule in allowed.get(lineno, ()) or
                   rule in allowed.get(lineno - 1, ()))
            findings.append(Finding(
                path, lineno, rule,
                "%s inside a parallelFor body orders results by "
                "completion, not by index; write to a pre-sized slot "
                "out[i] instead" % pm.group(1),
                suppressed=sup))


# ---------------------------------------------------------------------
# header-standalone (needs a compiler)
# ---------------------------------------------------------------------

def compiler_invocation(compile_commands):
    """(compiler, flags) for standalone header checks, derived from the
    first project entry in compile_commands.json when available."""
    compiler, flags = "c++", ["-std=c++20"]
    if compile_commands:
        for entry in compile_commands:
            args = entry.get("arguments") or entry.get("command",
                                                       "").split()
            if not args:
                continue
            compiler = args[0]
            flags = [a for a in args[1:]
                     if a.startswith(("-std", "-I", "-isystem", "-D"))]
            break
    return compiler, flags


def check_header_standalone(root, headers, compiler, flags, jobs,
                            findings):
    def compile_one(header):
        rel = os.path.relpath(header, os.path.join(root, "src"))
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cc", delete=False) as tu:
            tu.write('#include "%s"\nint accel_lint_tu_anchor;\n' % rel)
            name = tu.name
        try:
            proc = subprocess.run(
                [compiler] + flags + ["-I", os.path.join(root, "src"),
                                      "-fsyntax-only", name],
                capture_output=True, text=True)
            return header, proc.returncode, proc.stderr
        finally:
            os.unlink(name)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        for header, rc, err in ex.map(compile_one, headers):
            if rc == 0:
                continue
            rel = os.path.relpath(header, root)
            with open(header, encoding="utf-8", errors="replace") as f:
                head = "".join(f.readlines()[:15])
            sup_match = SUPPRESS_RE.search(head)
            sup = bool(sup_match and
                       "header-standalone" in sup_match.group(1))
            first_err = next((ln for ln in err.splitlines()
                              if "error:" in ln), err.strip()[:200])
            findings.append(Finding(
                rel, 1, "header-standalone",
                "header does not compile standalone: %s" % first_err,
                suppressed=sup))


# ---------------------------------------------------------------------
# Optional libclang refinement
# ---------------------------------------------------------------------

def libclang_param_lines(path, flags):
    """Lines containing std::function-typed function parameters, via
    libclang when importable; None when unavailable (caller falls back
    to the token-level decision)."""
    try:
        from clang import cindex
        index = cindex.Index.create()
        tu = index.parse(path, args=flags)
    except Exception:
        return None
    lines = set()

    def visit(node):
        if node.kind == cindex.CursorKind.PARM_DECL and \
                ("function<" in node.type.spelling or
                 "InlineFunction<" in node.type.spelling or
                 "InlineCallback" in node.type.spelling) and \
                "&" not in node.type.spelling and \
                node.location.file and \
                os.path.samefile(str(node.location.file), path):
            lines.add(node.location.line)
        for child in node.get_children():
            visit(child)

    try:
        visit(tu.cursor)
    except Exception:
        return None
    return lines


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

def in_scope(rel):
    return any(rel == d or rel.startswith(d + "/")
               for d in DETERMINISM_SCOPE)


def lint_file(root, path, rules, use_libclang, clang_flags):
    rel = os.path.relpath(path, root)
    text = read_text(path)
    allowed = suppressed_rules_by_line(text)
    clean = strip_comments_and_strings(text)
    findings = []
    if in_scope(rel):
        if "banned-random" in rules and "util/rng" not in rel:
            check_patterns(rel, clean, allowed, "banned-random",
                           RANDOM_PATTERNS, findings)
        if "banned-clock" in rules:
            check_patterns(rel, clean, allowed, "banned-clock",
                           CLOCK_PATTERNS, findings)
    if "unordered-float-iter" in rules:
        check_unordered_float_iter(rel, clean, allowed, findings)
    if "fn-by-value" in rules:
        ast_params = (libclang_param_lines(path, clang_flags)
                      if use_libclang else None)
        check_fn_by_value(rel, clean, allowed, findings, ast_params)
    if "parfor-pushback" in rules:
        check_parfor_pushback(rel, clean, allowed, findings)
    return findings


def main(argv):
    ap = argparse.ArgumentParser(
        prog="accel_lint",
        description="Determinism and hot-path lint for the "
                    "Accelerometer reproduction.")
    ap.add_argument("paths", nargs="*",
                    default=["src", "tests", "bench", "examples"],
                    help="files or directories relative to --root "
                         "(default: src tests bench examples)")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir containing compile_commands.json")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above "
                         "this script)")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write a machine-readable report here")
    ap.add_argument("--sarif", dest="sarif_out", default=None,
                    help="write a SARIF 2.1.0 report here")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help="comma-separated rule subset to run")
    ap.add_argument("--audit-suppressions", action="store_true",
                    help="report stale allow() comments for this "
                         "tool's rules instead of failing on findings")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--no-libclang", action="store_true",
                    help="skip the libclang refinement even when the "
                         "bindings are importable")
    ap.add_argument("-j", "--jobs", type=int,
                    default=os.cpu_count() or 1)
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0

    root = os.path.abspath(
        args.root or
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", ".."))
    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(ALL_RULES)
    if unknown:
        print("accel-lint: unknown rule(s): %s" %
              ", ".join(sorted(unknown)), file=sys.stderr)
        return 2

    compile_commands = None
    if args.build_dir:
        cc_path = os.path.join(args.build_dir, "compile_commands.json")
        if os.path.exists(cc_path):
            with open(cc_path, encoding="utf-8") as f:
                compile_commands = json.load(f)

    # The fixture corpus is intentionally full of violations; never
    # lint it as part of the real tree.
    excludes = ["tests/tools/fixtures"]
    files = collect_files(root, args.paths, excludes)

    compiler, flags = compiler_invocation(compile_commands)
    use_libclang = not args.no_libclang

    findings = []
    for path in files:
        findings.extend(lint_file(root, path, rules, use_libclang,
                                  flags))

    if "header-standalone" in rules:
        headers = [f for f in files
                   if f.endswith((".hh", ".hpp", ".h")) and
                   os.path.relpath(f, root).startswith("src/")]
        check_header_standalone(root, headers, compiler, flags,
                                args.jobs, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    # Dedupe overlapping findings: distinct token patterns for one rule
    # can fire on the same line (e.g. two clock reads in one statement);
    # one annotation per (file, line, rule) is enough. A suppressed
    # duplicate never shadows an unsuppressed one (sort puts renders in
    # a stable order; suppression state is per-line anyway).
    seen = set()
    deduped = []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(f)
    findings = deduped

    if args.audit_suppressions:
        def header_anchor(rule, rel, lineno):
            # header-standalone findings pin to line 1; an allow() in
            # a header's first 15 lines covers them.
            if rule == "header-standalone" and lineno <= 15 and \
                    rel.endswith((".hh", ".hpp", ".h")):
                return (1,)
            return ()

        stale = audit_suppressions(
            ((os.path.relpath(path, root), read_text(path))
             for path in files),
            findings, ALL_RULES, header_anchor)
        stale.sort(key=lambda f: (f.path, f.line))
        for f in stale:
            print(f.render())
        print("accel-lint: suppression audit: %d file(s), "
              "%d stale suppression(s)" % (len(files), len(stale)))
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as f:
                json.dump({
                    "version": 1,
                    "mode": "audit-suppressions",
                    "stale": [s.as_dict() for s in stale],
                }, f, indent=2)
                f.write("\n")
        return 1 if stale else 0

    active = [f for f in findings if not f.suppressed]

    for f in findings:
        print(f.render())
    print("accel-lint: %d file(s) checked, %d finding(s), "
          "%d suppressed" % (len(files), len(active),
                             len(findings) - len(active)))

    if args.json_out:
        report = {
            "version": 1,
            "root": root,
            "rules": sorted(rules),
            "checked_files": len(files),
            "findings": [f.as_dict() for f in findings],
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    if args.sarif_out:
        sarif = sarif_util.make_sarif(
            TOOL_NAME, TOOL_VERSION, RULE_DESCRIPTIONS,
            [f.as_dict() for f in findings], base_uri=root)
        sarif_util.write_sarif(args.sarif_out, sarif)

    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
