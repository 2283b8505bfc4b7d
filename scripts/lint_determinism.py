#!/usr/bin/env python3
"""Determinism linter: ban nondeterminism sources in result-affecting code.

A fast tokenizing checker over the C++ tree that enforces the repo's
determinism contract statically (DESIGN.md §13).  Rules live in
``scripts/determinism_rules.toml``; each bans one nondeterminism source
(hashed-container iteration, wall clocks, unseeded randomness, pointer
ordering, ...).  Comments and string literals are stripped before
matching, so prose about ``rand()`` never trips the gate.  A rule's
``include_patterns`` match the paths of ``#include`` directives instead
(the test-oracle boundary of ``src/core/testing/``).

Escapes are inline comments on — or in the comment block immediately
above — the flagged line::

    // lint: allow(<rule-id>): <justification>

The justification is mandatory; a bare ``allow`` is itself reported
(rule ``unjustified-allow``).

Usage:
    scripts/lint_determinism.py                    # lint configured roots
    scripts/lint_determinism.py src/core bench     # explicit paths
    scripts/lint_determinism.py --json out.json    # machine-readable report
    scripts/lint_determinism.py --explain RULE     # why a rule exists

Exit codes: 0 clean, 1 findings, 2 usage/config error.
"""

import argparse
import json
import os
import re
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CONFIG = os.path.join(REPO_ROOT, "scripts", "determinism_rules.toml")

ALLOW_RE = re.compile(
    r"lint:\s*allow\(([A-Za-z0-9_-]+)\)\s*(?::\s*(.*?))?\s*(?:\*/.*)?$")
COMMENT_ONLY_RE = re.compile(r"^\s*(?://|\*|/\*)")

# Matches an unordered container declaration and captures the variable
# name (one level of nested template args — enough for this tree; the
# fixtures under tests/lint_fixtures/ pin the supported shapes).
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:multi)?(?:map|set)\s*"
    r"<(?:[^<>]|<[^<>]*>)*>\s*&?\s+(\w+)\s*[;({=,)]")
UNORDERED_INLINE_ITER_RE = re.compile(
    r"for\s*\([^)]*:\s*[^)]*unordered_(?:multi)?(?:map|set)")
# An #include directive on a comment-stripped line (its path is blanked
# with the other string literals) and the path on the raw line.
INCLUDE_DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")
INCLUDE_PATH_RE = re.compile(r'#\s*include\s*[<"]([^>"]+)[>"]')


def fail(message):
    print(f"lint_determinism: error: {message}", file=sys.stderr)
    sys.exit(2)


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving layout.

    Keeps every newline (so line numbers survive) and replaces all other
    masked characters with spaces.  Handles //, /* */, "..." (with
    escapes), '...' and raw strings R"delim(...)delim".
    """
    out = []
    i, n = 0, len(text)
    CODE, LINE, BLOCK, STR, CHR, RAW = range(6)
    state = CODE
    raw_terminator = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string?  Look back for R / u8R / LR / UR / uR.
                j = len(out) - 1
                prefix = ""
                while j >= 0 and out[j].strip() and out[j][-1].isalnum():
                    prefix = out[j][-1] + prefix
                    j -= 1
                    if len(prefix) > 3:
                        break
                if prefix.endswith("R"):
                    m = re.match(r'"([^()\\ \t\n]*)\(', text[i:])
                    if m:
                        raw_terminator = ")" + m.group(1) + '"'
                        state = RAW
                        out.append('"')
                        i += 1
                        continue
                state = STR
                out.append('"')
                i += 1
            elif c == "'":
                state = CHR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE:
            if c == "\n":
                state = CODE
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = CODE
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = CODE
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == CHR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = CODE
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # RAW
            if text.startswith(raw_terminator, i):
                state = CODE
                out.append(" " * (len(raw_terminator) - 1) + '"')
                i += len(raw_terminator)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def load_config(path):
    if tomllib is None:
        fail("python >= 3.11 (tomllib) required")
    try:
        with open(path, "rb") as f:
            doc = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as err:
        fail(f"cannot load config {path}: {err}")
    rules = {}
    for rule_id, spec in doc.get("rules", {}).items():
        compiled = {}
        for key in ("patterns", "include_patterns"):
            compiled[key] = []
            for pat in spec.get(key, []):
                try:
                    compiled[key].append(re.compile(pat))
                except re.error as err:
                    fail(f"rule {rule_id}: bad pattern {pat!r}: {err}")
        rules[rule_id] = {
            **compiled,
            "builtin": spec.get("builtin"),
            "summary": spec.get("summary", ""),
            "explain": spec.get("explain", "").strip(),
            "allow_paths": tuple(spec.get("allow_paths", [])),
        }
    linter = doc.get("linter", {})
    return {
        "roots": linter.get("roots", ["src"]),
        "extensions": tuple(linter.get("extensions", [".h", ".cc"])),
        "exclude": tuple(linter.get("exclude", [])),
        "rules": rules,
    }


def collect_files(paths, config):
    files = []
    for path in paths:
        abs_path = path if os.path.isabs(path) else os.path.join(REPO_ROOT, path)
        if os.path.isfile(abs_path):
            files.append(abs_path)
            continue
        if not os.path.isdir(abs_path):
            fail(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(abs_path):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(config["extensions"]):
                    files.append(os.path.join(dirpath, name))
    rel = [os.path.relpath(f, REPO_ROOT) for f in files]
    return [r for r in rel
            if not any(r.startswith(e) for e in config["exclude"])]


def find_allow(raw_lines, line_index):
    """Allow directive for a finding on raw_lines[line_index] (0-based).

    Looks at the flagged line itself, then upward through the contiguous
    comment block above it.  Returns (rule_id, justification) or None.
    """
    candidates = [line_index]
    j = line_index - 1
    while j >= 0 and COMMENT_ONLY_RE.match(raw_lines[j]):
        candidates.append(j)
        j -= 1
    for idx in candidates:
        m = ALLOW_RE.search(raw_lines[idx])
        if m:
            justification = (m.group(2) or "").strip()
            # A justification may spill onto following comment lines
            # (still above the code line); count them in.
            if justification:
                k = idx + 1
                while k < line_index and COMMENT_ONLY_RE.match(raw_lines[k]):
                    justification += " " + raw_lines[k].lstrip("/ *").strip()
                    k += 1
            return m.group(1), justification
    return None


def builtin_unordered_iteration(code_lines):
    """Yields (line_index, snippet) for unordered-container iteration."""
    declared = set()
    for line in code_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            declared.add(m.group(1))
    if declared:
        names = "|".join(re.escape(v) for v in sorted(declared))
        range_for = re.compile(
            r"for\s*\(\s*[^;)]*?:\s*[&*]?\s*(?:" + names + r")\s*\)")
        begin_walk = re.compile(
            r"\b(?:" + names + r")\s*\.\s*c?r?(?:begin|end)\s*\(\s*\)")
    for i, line in enumerate(code_lines):
        if UNORDERED_INLINE_ITER_RE.search(line):
            yield i, line.strip()
            continue
        if declared and (range_for.search(line) or begin_walk.search(line)):
            yield i, line.strip()


def lint_file(rel_path, config):
    abs_path = os.path.join(REPO_ROOT, rel_path)
    try:
        with open(abs_path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as err:
        fail(f"cannot read {rel_path}: {err}")
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    # splitlines() on the stripped text can drop a trailing line; pad.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    hits = []  # (line_index, rule_id, snippet)
    for rule_id, rule in config["rules"].items():
        if any(rel_path.startswith(p) for p in rule["allow_paths"]):
            continue
        if rule["builtin"] == "unordered-iteration":
            for i, snippet in builtin_unordered_iteration(code_lines):
                hits.append((i, rule_id, snippet))
        for pattern in rule["patterns"]:
            for i, line in enumerate(code_lines):
                if pattern.search(line):
                    hits.append((i, rule_id, raw_lines[i].strip()))
        for pattern in rule["include_patterns"]:
            for i, line in enumerate(code_lines):
                if not INCLUDE_DIRECTIVE_RE.match(line):
                    continue
                m = INCLUDE_PATH_RE.search(raw_lines[i])
                if m and pattern.search(m.group(1)):
                    hits.append((i, rule_id, raw_lines[i].strip()))

    findings, allowed = [], []
    seen = set()
    for i, rule_id, snippet in sorted(hits):
        if (i, rule_id) in seen:  # several patterns, one report
            continue
        seen.add((i, rule_id))
        allow = find_allow(raw_lines, i)
        record = {"file": rel_path, "line": i + 1, "rule": rule_id,
                  "severity": "error", "snippet": snippet[:200]}
        if allow is not None and allow[0] == rule_id:
            if allow[1]:
                record["justification"] = allow[1]
                allowed.append(record)
            else:
                record["rule"] = "unjustified-allow"
                record["severity"] = "error"
                record["snippet"] = (
                    f"allow({rule_id}) without a justification string")
                findings.append(record)
        else:
            findings.append(record)
    return findings, allowed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint "
                             "(default: roots from the rules config)")
    parser.add_argument("--config", default=DEFAULT_CONFIG,
                        help="rules file (default: scripts/determinism_rules.toml)")
    parser.add_argument("--json", metavar="OUT", dest="json_out",
                        help="also write a machine-readable report")
    parser.add_argument("--explain", metavar="RULE",
                        help="print a rule's rationale and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-finding output (exit code only)")
    args = parser.parse_args()

    config = load_config(args.config)

    if args.explain:
        rule = config["rules"].get(args.explain)
        if rule is None:
            known = ", ".join(sorted(config["rules"]))
            fail(f"unknown rule {args.explain!r} (known: {known})")
        print(f"{args.explain}: {rule['summary']}\n")
        print(rule["explain"] or "(no extended rationale recorded)")
        return 0

    paths = args.paths or config["roots"]
    files = collect_files(paths, config)
    if not files:
        fail(f"no {'/'.join(config['extensions'])} files under {paths}")

    all_findings, all_allowed = [], []
    for rel_path in files:
        findings, allowed = lint_file(rel_path, config)
        all_findings.extend(findings)
        all_allowed.extend(allowed)

    if args.json_out:
        report = {
            "schema": 1,
            "config": os.path.relpath(args.config, REPO_ROOT),
            "scanned_files": len(files),
            "findings": all_findings,
            "allowed": all_allowed,
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    if not args.quiet:
        for f in all_findings:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['snippet']}")
            summary = config["rules"].get(f["rule"], {}).get("summary")
            if summary:
                print(f"    {summary}")
        for a in all_allowed:
            print(f"{a['file']}:{a['line']}: allowed [{a['rule']}]: "
                  f"{a['justification']}")
        verdict = "FAIL" if all_findings else "ok"
        print(f"lint_determinism: {len(files)} files, "
              f"{len(all_findings)} findings, "
              f"{len(all_allowed)} justified escapes — {verdict}")
        if all_findings:
            print("explain a rule with: "
                  "scripts/lint_determinism.py --explain <rule>")
    return 1 if all_findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into `head` or similar; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
