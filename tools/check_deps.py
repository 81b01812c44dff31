"""Lint gate: every third-party import is declared in ``pyproject.toml``.

Scans the imports of every ``.py`` file under ``src/`` and ``tests/`` with
the ``ast`` module.  An import passes when its top-level name is:

* in the standard library (``sys.stdlib_module_names``);
* local: a package under ``src/`` or a module or directory inside the
  scanned tree (``tests/`` imports its own helpers such as ``harness``);
* declared: in ``[project] dependencies`` for ``src/``, and in those plus
  the ``test`` extra (``[project.optional-dependencies] test``) for
  ``tests/``.

Anything else fails the check (exit 1), listed with file and line, so code
cannot start importing a package that ``pip install -e ".[test]"`` does not
install.  Reading ``pyproject.toml`` needs ``tomllib`` (Python 3.11+).

Usage::

    python tools/check_deps.py [--root .]
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

__all__ = ["declared_names", "find_imports", "undeclared_imports", "main"]

#: Scanned directories and the ``[project.optional-dependencies]`` extras
#: each may use on top of the runtime dependencies.
_SCOPES = {"src": (), "tests": ("test",)}


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def declared_names(pyproject: dict, extras: tuple[str, ...]) -> set[str]:
    """Normalised distribution names declared as runtime deps plus ``extras``."""
    project = pyproject.get("project", {})
    requirements = list(project.get("dependencies", []))
    for extra in extras:
        requirements += project.get("optional-dependencies", {}).get(extra, [])
    return {_normalise(re.match(r"[A-Za-z0-9_.-]+", req.strip()).group(0)) for req in requirements}


def find_imports(path: Path) -> list[tuple[int, str]]:
    """Return (line, top-level name) for every absolute import in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def _local_names(root: Path, tree: Path) -> set[str]:
    names = {tree.name}
    src = root / "src"
    if src.is_dir():
        names |= {entry.name for entry in src.iterdir() if (entry / "__init__.py").is_file()}
    names |= {path.stem if path.suffix == ".py" else path.name for path in tree.rglob("*")}
    return {_normalise(name) for name in names}


def undeclared_imports(root: Path, pyproject: dict) -> list[str]:
    """Return ``path:line: name`` for every undeclared import under ``root``."""
    failures: list[str] = []
    for scope, extras in _SCOPES.items():
        tree = root / scope
        if not tree.is_dir():
            continue
        allowed = declared_names(pyproject, extras) | _local_names(root, tree)
        for path in sorted(tree.rglob("*.py")):
            for line, name in find_imports(path):
                if name in sys.stdlib_module_names or _normalise(name) in allowed:
                    continue
                failures.append(f"{path}:{line}: {name}")
    return failures


def main(argv: list[str] | None = None) -> int:
    """Scan ``src/`` and ``tests/``; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root (default: .)")
    args = parser.parse_args(argv)
    try:
        import tomllib
    except ModuleNotFoundError:
        sys.stderr.write("check_deps needs Python 3.11+ (tomllib) to read pyproject.toml\n")
        return 2

    root = Path(args.root)
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    failures = undeclared_imports(root, pyproject)
    for failure in failures:
        sys.stderr.write(f"undeclared third-party import {failure}\n")
    if failures:
        sys.stderr.write(
            f"{len(failures)} undeclared import(s); declare them in pyproject.toml "
            "([project] dependencies, or the test extra for tests/)\n"
        )
        return 1
    sys.stdout.write("every third-party import is declared in pyproject.toml\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
