"""Source front end shared by accel_lint and accel_analyze.

Both checkers read C++ the same way: findings, the layout-preserving
comment/string stripper, `// accel-lint: allow(rule)` suppressions,
bracket matching, file collection, and the stale-suppression audit.
Keeping one copy here means the two tools cannot drift apart on what
a suppression covers or where a finding's line is.
"""

import os
import re

CXX_EXTENSIONS = (".cc", ".cpp", ".cxx", ".hh", ".h", ".hpp")

SUPPRESS_RE = re.compile(r"//\s*accel-lint:\s*allow\(([\w\-, ]+)\)")


class Finding:
    def __init__(self, path, line, rule, message, suppressed=False,
                 baselined=False):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = suppressed
        self.baselined = baselined

    def as_dict(self):
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }

    def render(self):
        tag = ""
        if self.suppressed:
            tag = " (suppressed)"
        elif self.baselined:
            tag = " (baselined)"
        return "%s:%d: [%s]%s %s" % (self.path, self.line, self.rule,
                                     tag, self.message)


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving line
    structure and column offsets so findings keep exact positions.

    Suppression comments must be collected *before* calling this.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"' and (i == 0 or
                                          not (text[i - 1].isalnum() or
                                               text[i - 1] == "_")):
            # Raw string literal: R"delim( ... )delim" — unescaped
            # quotes and backslashes inside must not desync the lexer.
            j = i + 2
            while j < n and text[j] not in "(\n":
                j += 1
            delim = text[i + 2:j]
            terminator = ")" + delim + '"'
            end = text.find(terminator, j)
            end = (end + len(terminator)) if end != -1 else n
            for k in range(i, end):
                out.append("\n" if text[k] == "\n" else " ")
            i = end
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressions(text):
    """Yield (lineno, rules, covered) for every allow() comment.

    An allow() on a code line covers that line. An allow() inside a
    comment block also covers the first code line after the block, so
    a justification may wrap over several comment lines.
    """
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        covered = {lineno}
        if line.strip().startswith("//"):
            nxt = lineno
            while nxt < len(lines) and \
                    lines[nxt].strip().startswith("//"):
                nxt += 1
            covered.add(nxt + 1)
        yield lineno, rules, covered


def suppressed_rules_by_line(text):
    """Map line number -> set of rule names allowed on that line."""
    allowed = {}
    for _, rules, covered in suppressions(text):
        for lineno in covered:
            allowed.setdefault(lineno, set()).update(rules)
    return allowed


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_balanced(text, start, open_ch, close_ch):
    """Return the offset one past the bracket closing text[start]
    (which must be open_ch), or None when unbalanced. Angle brackets
    count each '>' individually (so '>>' closes two levels) and give up
    at ';', which a template argument list never crosses."""
    assert text[start] == open_ch
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        elif open_ch == "<" and c == ";":
            return None
        i += 1
    return None


def collect_files(root, paths, excludes):
    """Sorted C++ sources under @p paths (relative to @p root), minus
    any directory in @p excludes. Missing paths are skipped."""
    files = []
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            files.append(full)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            rel_dir = os.path.relpath(dirpath, root)
            if any(rel_dir == e or rel_dir.startswith(e + "/")
                   for e in excludes):
                dirnames[:] = []
                continue
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, fn))
    return sorted(set(files))


def audit_suppressions(sources, findings, tool_rules, extra_lines=None):
    """Stale allow() comments in @p sources, an iterable of (rel, text).

    A suppression is stale when it names one of @p tool_rules and that
    rule produced no finding (suppressed or not) on any line it covers:
    the lines suppressions() reports plus the line below, matching the
    checkers' "this line or the one above" lookup. Foreign rule names
    (the other tool's) are ignored. @p extra_lines(rule, rel, lineno)
    may name further covered lines for tool-specific anchors.
    """
    fired = {}  # (rel, line) -> set of rules (suppressed or not)
    for f in findings:
        fired.setdefault((f.path, f.line), set()).add(f.rule)
    stale = []
    for rel, text in sources:
        for lineno, rules, covered in suppressions(text):
            covered = covered | {lineno + 1}
            for rule in sorted(rules & set(tool_rules)):
                rule_covered = covered
                if extra_lines:
                    rule_covered = covered | set(
                        extra_lines(rule, rel, lineno))
                if any(rule in fired.get((rel, ln), ())
                       for ln in rule_covered):
                    continue
                stale.append(Finding(
                    rel, lineno, "stale-suppression",
                    "allow(%s) no longer matches any %s finding on "
                    "this line; remove the suppression" %
                    (rule, rule)))
    return stale
