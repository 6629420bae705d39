"""Module boundaries of the package, read from its sources.

Private geometry names stay inside ``cubemc.geometry``: the transforms'
array cores and their scalar adapter are implementation details, and
every other module calls the public transforms.  The filter bank has one
owner, ``cubemc.interp``: no other module reads it, and only the three
calls that keep a positional ``bank`` for their callers take one.  The
package sources are parsed with ``ast``, never imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubemc"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "geometry.py")
ALL_SOURCES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert PACKAGE / "motion_model.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_geometry_import(path):
    tree = parse(path)
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in {("cubemc.geometry", 0), ("geometry", 1)}
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private geometry names {private}"


def names(tree):
    """Every identifier ``tree`` uses: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


@pytest.mark.parametrize("path", [p for p in ALL_SOURCES if p.name != "interp.py"],
                         ids=lambda p: p.name)
def test_only_interp_reads_the_bank(path):
    tree = parse(path)
    if path.name == "__init__.py":  # the package re-exports it, and does nothing else with it
        assert "generate_dctif_bank" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    else:
        assert "generate_dctif_bank" not in set(names(tree))


def test_bank_parameters():
    takers = {
        (path.stem, node.name)
        for path in ALL_SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "bank" in {a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                       *node.args.kwonlyargs)}
    }
    assert takers == {("motion_search", "tzs_search"), ("motion_search", "mode_decide"),
                      ("interp", "warp_block")}
