#!/usr/bin/env python3
"""check_docs.py — fail when the docs name code that does not exist.

Scans the backticked spans of docs/*.md, the top-level README*.md files
and the `//` comments of every source file under src/, and reports:

  * a repo path (`src/sweep/plan.hpp`, `solver/banded_lu.hpp`,
    `tests/`) that no tracked file or directory ends with;
  * a `Type::member` whose type no file in src/, tests/ or tools/
    declares, or whose member never appears as an identifier in the
    type's own files: those that declare it, and their same-stem
    siblings (model3d.hpp's model3d.cpp) — so a member deleted from its
    type is caught even when another type or a test keeps the name;
  * a `snake_case(` call whose name never appears there;
  * a bare `snake_case` name with an underscore (a function, field,
    metric or target) that never appears as an identifier in that code,
    nor in bench/, e2e_bench/, scripts/, .github/, CMakeLists.txt or
    BENCHMARK.json (where the metric and target names live).

e2e_bench/README.md is left out: it belongs to the benchmark, which
changes only together with the benchmark.

Usage: scripts/check_docs.py [REPO_ROOT]   (exit 1 and one line per miss)
"""
import pathlib
import re
import sys

PATH_RE = re.compile(
    r"^(?:[\w.-]+/)+(?:[\w.-]+\.(?:hpp|cpp|h|md|py|sh|json|yml|txt|stack|env|csv))?$")
MEMBER_RE = re.compile(r"\b([A-Z]\w*)::(~?[A-Za-z_]\w*)")
CALL_RE = re.compile(r"(?<![\w.:>])([a-z_][a-z0-9_]*)\(")
BARE_RE = re.compile(r"^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$")
SPAN_RE = re.compile(r"`([^`\n]+)`")
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
# A type's declaration (not a forward declaration or a friend): its class,
# struct, union or enum head, or a `using Type =` alias.
DECL_RE = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+class|\s+struct)?)\s+([A-Z]\w*)\b(?!\s*;)"
    r"|\busing\s+([A-Z]\w*)\s*=")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h"}
# Files outside src/tests/tools whose identifiers a bare name may resolve
# against: benchmark and build code, scripts and CI.
NAME_TREES = ("bench", "e2e_bench", "scripts", ".github")
NAME_FILES = ("CMakeLists.txt", "BENCHMARK.json")
NAME_SUFFIXES = SOURCE_SUFFIXES | {".py", ".sh", ".yml", ".json", ".txt"}


def tracked_paths(root):
    """Every file and directory under the source trees, as repo-relative
    posix paths (directories with a trailing slash)."""
    paths = set()
    for top in ("src", "tests", "tools", "bench", "examples", "docs",
                "scripts", "e2e_bench", ".github"):
        base = root / top
        if not base.exists():
            continue
        paths.add(top + "/")
        for p in base.rglob("*"):
            rel = p.relative_to(root).as_posix()
            paths.add(rel + "/" if p.is_dir() else rel)
    for p in root.iterdir():
        if p.is_file():
            paths.add(p.name)
    return paths


def code_files(root):
    """Every source file under src/, tests/ and tools/, with its text."""
    for top in ("src", "tests", "tools"):
        for p in sorted((root / top).rglob("*")):
            if p.is_file() and p.suffix in SOURCE_SUFFIXES:
                yield p, p.read_text(errors="replace")


def identifiers(files):
    """Every identifier token in the code the docs may name."""
    idents = set()
    for _, text in files:
        idents.update(IDENT_RE.findall(text))
    return idents


def type_members(files):
    """{type name: identifiers of the type's own files}: the files that
    declare it and their same-stem siblings."""
    stem_idents = {}
    declared_in = {}
    for p, text in files:
        key = p.with_suffix("")
        stem_idents.setdefault(key, set()).update(IDENT_RE.findall(text))
        for match in DECL_RE.finditer(text):
            declared_in.setdefault(match.group(1) or match.group(2), set()).add(key)
    return {name: set().union(*(stem_idents[k] for k in keys))
            for name, keys in declared_in.items()}


def names(root, idents):
    """`idents` plus every identifier token in the benchmark, build, script
    and CI files."""
    found = set(idents)
    files = [root / name for name in NAME_FILES]
    for top in NAME_TREES:
        files.extend(p for p in (root / top).rglob("*") if p.suffix in NAME_SUFFIXES)
    for p in files:
        if p.is_file():
            found.update(IDENT_RE.findall(p.read_text(errors="replace")))
    return found


def path_resolves(span, paths):
    return any(p == span or p.endswith("/" + span) for p in paths)


def check_span(span, paths, idents, members, known_names):
    """Misses in one backticked span, as messages."""
    misses = []
    if BARE_RE.match(span) and span not in known_names:
        misses.append(f"name `{span}` is not in the code")
    if PATH_RE.match(span) and not path_resolves(span, paths):
        misses.append(f"path `{span}` does not exist")
    for type_name, member in MEMBER_RE.findall(span):
        if type_name not in members:
            misses.append(f"`{type_name}::{member}`: no code declares `{type_name}`")
        elif member.lstrip("~") not in members[type_name]:
            misses.append(f"`{type_name}::{member}`: `{member}` is not in "
                          f"`{type_name}`'s files")
    for name in CALL_RE.findall(span):
        if name not in idents:
            misses.append(f"`{name}(` is not in the code")
    return misses


def sources(root):
    """(label, text) for every scanned document and source comment."""
    for p in sorted((root / "docs").glob("*.md")):
        yield p.relative_to(root).as_posix(), p.read_text()
    for p in sorted(root.glob("README*.md")):
        yield p.name, p.read_text()
    for p in sorted((root / "src").rglob("*")):
        if not (p.is_file() and p.suffix in SOURCE_SUFFIXES):
            continue
        rel = p.relative_to(root).as_posix()
        for number, line in enumerate(p.read_text().splitlines(), 1):
            at = line.find("//")
            if at >= 0:
                yield f"{rel}:{number}", line[at:]


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    paths = tracked_paths(root)
    files = list(code_files(root))
    idents = identifiers(files)
    members = type_members(files)
    known_names = names(root, idents)
    failures = 0
    for label, text in sources(root):
        for number, line in enumerate(text.splitlines(), 1):
            where = label if ":" in label else f"{label}:{number}"
            for span in SPAN_RE.findall(line):
                for miss in check_span(span.strip(), paths, idents, members,
                                       known_names):
                    print(f"{where}: {miss}")
                    failures += 1
    if failures:
        print(f"check_docs: {failures} stale reference(s)")
        return 1
    print("check_docs: every backticked path and name resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
