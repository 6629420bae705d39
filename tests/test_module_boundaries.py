"""Private geometry names stay inside ``cubemc.geometry``.

The transforms' array cores and their scalar adapter are implementation
details; every other module calls the public transforms.  The package
sources are parsed with ``ast``, never imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubemc"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "geometry.py")


def test_sources_found():
    assert PACKAGE / "motion_model.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_geometry_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in {("cubemc.geometry", 0), ("geometry", 1)}
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private geometry names {private}"
