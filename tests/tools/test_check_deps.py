"""Tests for ``tools/check_deps.py``, the declared-dependency lint gate."""

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_deps.py"
_spec = importlib.util.spec_from_file_location("check_deps", _TOOL)
check_deps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_deps)

PYPROJECT = {"project": {"dependencies": ["numpy"], "optional-dependencies": {"test": ["pytest"]}}}


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_declared_names_normalise_and_drop_specifiers():
    pyproject = {"project": {"dependencies": ["NumPy>=1.24", "scikit-learn ; python_version>'3'"]}}
    assert check_deps.declared_names(pyproject, ()) == {"numpy", "scikit_learn"}


def test_declared_names_add_only_the_requested_extras():
    pyproject = {
        "project": {
            "dependencies": ["numpy"],
            "optional-dependencies": {"test": ["pytest"], "docs": ["sphinx"]},
        }
    }
    assert check_deps.declared_names(pyproject, ()) == {"numpy"}
    assert check_deps.declared_names(pyproject, ("test",)) == {"numpy", "pytest"}


def test_find_imports_reports_absolute_top_level_names(tmp_path):
    path = write(
        tmp_path,
        "mod.py",
        "import a.b, c\nfrom d.e import f\nfrom . import g\nfrom .h import i\n",
    )
    assert check_deps.find_imports(path) == [(1, "a"), (1, "c"), (2, "d")]


def test_clean_tree_passes(tmp_path):
    write(tmp_path, "src/pkg/__init__.py", "import json\nimport numpy\nfrom pkg import mod\n")
    write(tmp_path, "src/pkg/mod.py", "from collections import Counter\n")
    write(tmp_path, "tests/helpers.py", "import pkg\n")
    write(tmp_path, "tests/test_a.py", "import pytest\nimport helpers\nimport numpy\n")
    assert check_deps.undeclared_imports(tmp_path, PYPROJECT) == []


def test_undeclared_import_is_reported_with_its_line(tmp_path):
    path = write(tmp_path, "src/pkg/__init__.py", "import os\nimport requests\n")
    assert check_deps.undeclared_imports(tmp_path, PYPROJECT) == [f"{path}:2: requests"]


def test_test_extra_is_allowed_only_under_tests(tmp_path):
    write(tmp_path, "tests/test_a.py", "import pytest\n")
    path = write(tmp_path, "src/pkg/__init__.py", "import pytest\n")
    assert check_deps.undeclared_imports(tmp_path, PYPROJECT) == [f"{path}:1: pytest"]


def test_main_exit_code(tmp_path, capsys):
    write(tmp_path, "pyproject.toml", '[project]\nname = "pkg"\ndependencies = ["numpy"]\n')
    write(tmp_path, "src/pkg/__init__.py", "import numpy\n")
    clean = check_deps.main(["--root", str(tmp_path)])
    write(tmp_path, "src/pkg/mod.py", "import scipy\n")
    dirty = check_deps.main(["--root", str(tmp_path)])
    # Reading pyproject.toml needs tomllib, which is stdlib from Python 3.11.
    assert (clean, dirty) == ((0, 1) if sys.version_info >= (3, 11) else (2, 2))
    if sys.version_info >= (3, 11):
        assert "mod.py:1: scipy" in capsys.readouterr().err
