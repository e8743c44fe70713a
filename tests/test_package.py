"""The package's public surface, its dependencies and its Python floor."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import swingid

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    # a name deleted from the package but left in __all__ breaks
    # `from swingid import *`
    missing = [name for name in swingid.__all__ if not hasattr(swingid, name)]
    assert missing == []
    assert len(set(swingid.__all__)) == len(swingid.__all__)


def test_package_version_matches_pyproject():
    # manifests and .meta files record swingid.__version__; it names the
    # noise stream, which changed in 0.2.0
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert declared == [swingid.__version__]


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10
    sources = sorted((SRC / "swingid").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cli_imports_numpy_but_not_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, swingid.cli; print(sorted({m.split('.')[0] "
             "for m in sys.modules} & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['numpy']"
