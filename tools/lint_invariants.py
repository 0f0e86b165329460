#!/usr/bin/env python3
"""Project-invariant linter: machine-checks the conventions that earlier
PRs established by hand and review alone kept alive. Run from anywhere:

    python3 tools/lint_invariants.py [--root REPO_ROOT]

Enforced rules (one violation line per finding, exit 1 on any):

  raw-getenv      Every LC_* knob read goes through util/env (GetEnvInt /
                  GetEnvDouble / GetEnvString / GetEnvBool). A raw getenv()
                  call anywhere else bypasses the strict parsing and the
                  single place knobs are documented. Allowed only in
                  src/util/env.cc, the wrapper's own implementation.

  loose-parse     No atoi/atol/atof/strtol/strtod/sscanf family calls
                  outside src/util/str.cc and src/util/env.cc. Untrusted
                  text must go through ParseInt32/ParseDouble, which reject
                  trailing junk, overflow, and the lenient strtod extras.

  unlisted-knob   Every LC_* knob that src/, bench/, or examples/ reads
                  must appear in README.md's knob table, so the table can
                  never drift from the code again. (tests/ may use private
                  LC_TEST_* knobs; they are exercised, not documented.)

  raw-mutex       Every mutex in src/ is the annotated lc::Mutex /
                  lc::CondVar wrapper from util/mutex.h, never a raw std::
                  synchronization type — a raw std::mutex member is
                  invisible to Clang Thread Safety Analysis and silently
                  punches a hole in the -Wthread-safety proofs. Allowed
                  only in src/util/mutex.h, the wrapper itself. The repo
                  has no reader/writer lock, so std::shared_mutex and
                  std::shared_lock have no wrapper and stay forbidden.

  unregistered-test
                  Every tests/*_test.cc file is registered in
                  tests/CMakeLists.txt. An unregistered test still
                  compiles in isolation and looks alive in the tree, but
                  ctest never runs it — it is silence wearing a test's
                  name.

Matching runs on comment- and string-stripped source (so prose about
strtod, or a string containing "getenv", never trips a rule), except knob
extraction, which reads the original text because the knob name IS a
string literal. Knob reads split across lines (clang-format loves to wrap
the call) are matched with whitespace-tolerant regexes over the whole
file, not line by line.

tests/lint_invariants_test.py runs this linter against seeded-violation
fixture trees under tests/lint_fixtures/; those fixtures (and the
compile-fail fixtures, which misuse locks on purpose) are skipped here.
"""

import argparse
import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
SCAN_DIRS = ("src", "bench", "examples", "tests")
KNOB_TABLE_DIRS = ("src", "bench", "examples")
SKIP_DIR_PARTS = {"lint_fixtures", "compile_fail", "analyze_fixtures",
                  "build", "CMakeFiles"}

GETENV_RE = re.compile(r"\bgetenv\s*\(")
GETENV_ALLOWED = {os.path.join("src", "util", "env.cc")}

LOOSE_PARSE_RE = re.compile(
    r"\b(atoi|atol|atoll|atof|strtol|strtoll|strtoul|strtoull|strtoimax"
    r"|strtoumax|strtof|strtod|strtold|sscanf|scanf)\s*\("
)
LOOSE_PARSE_ALLOWED = {
    os.path.join("src", "util", "str.cc"),
    os.path.join("src", "util", "env.cc"),
}

# Whitespace-tolerant so a call wrapped across lines still matches.
KNOB_READ_RE = re.compile(
    r"GetEnv(?:Int|Double|String|Bool)\s*\(\s*\"(LC_[A-Z0-9_]+)\""
)

STD_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|condition_variable|condition_variable_any|lock_guard|unique_lock"
    r"|shared_lock|scoped_lock)\b"
)
STD_SYNC_ALLOWED = {os.path.join("src", "util", "mutex.h")}


def strip_comments_and_strings(text):
    """Blanks comments, string literals, and char literals while keeping
    every newline, so offsets still map to the original line numbers."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append('""')
        elif c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() and nxt.isalnum():
                out.append(c)  # Digit separator (1'000'000), not a char.
                i += 1
            else:
                i += 1
                while i < n and text[i] != "'":
                    i += 2 if text[i] == "\\" else 1
                i += 1
                out.append("''")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_source_files(root, top_dirs):
    for top in top_dirs:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIR_PARTS
            )
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def check_tree(root):
    """Returns a list of 'path:line: [rule] message' violation strings."""
    violations = []

    def report(path, line, rule, message):
        rel = os.path.relpath(path, root)
        violations.append(f"{rel}:{line}: [{rule}] {message}")

    knobs_read = {}  # knob name -> first "path:line" that reads it.
    for path in iter_source_files(root, SCAN_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            original = f.read()
        stripped = strip_comments_and_strings(original)

        if rel not in GETENV_ALLOWED:
            for match in GETENV_RE.finditer(stripped):
                report(
                    path, line_of(stripped, match.start()), "raw-getenv",
                    "raw getenv(); read knobs through util/env "
                    "GetEnvInt/Double/String/Bool",
                )
        if rel not in LOOSE_PARSE_ALLOWED:
            for match in LOOSE_PARSE_RE.finditer(stripped):
                report(
                    path, line_of(stripped, match.start()), "loose-parse",
                    f"{match.group(1)}(); parse untrusted text with "
                    "util/str ParseInt32/ParseDouble",
                )
        if rel.split(os.sep, 1)[0] in KNOB_TABLE_DIRS:
            for match in KNOB_READ_RE.finditer(original):
                knobs_read.setdefault(
                    match.group(1),
                    (path, line_of(original, match.start())),
                )
        if rel.split(os.sep, 1)[0] == "src" and rel not in STD_SYNC_ALLOWED:
            for match in STD_SYNC_RE.finditer(stripped):
                report(
                    path, line_of(stripped, match.start()), "raw-mutex",
                    f"std::{match.group(1)} is invisible to thread safety "
                    "analysis; use the annotated lc:: wrapper from "
                    "util/mutex.h",
                )

    tests_cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    tests_dir = os.path.join(root, "tests")
    if os.path.isdir(tests_dir):
        try:
            with open(tests_cmake_path, encoding="utf-8") as f:
                tests_cmake = f.read()
        except OSError:
            tests_cmake = ""
        for name in sorted(os.listdir(tests_dir)):
            if not name.endswith("_test.cc"):
                continue
            if os.path.splitext(name)[0] not in tests_cmake:
                report(
                    os.path.join(tests_dir, name), 1, "unregistered-test",
                    f"{name} is not registered in tests/CMakeLists.txt; "
                    "an unregistered test compiles to silence",
                )

    readme_path = os.path.join(root, "README.md")
    try:
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
    except OSError:
        readme = ""
    for knob in sorted(knobs_read):
        if knob not in readme:
            path, line = knobs_read[knob]
            report(
                path, line, "unlisted-knob",
                f"knob {knob} is read here but missing from README.md's "
                "knob table",
            )

    return violations


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    parser.add_argument(
        "--root", default=default_root,
        help="repository root to lint (default: this script's repo)",
    )
    args = parser.parse_args(argv)

    violations = check_tree(args.root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
