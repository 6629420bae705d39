"""Module boundaries of the package, read from its sources.

Private geometry names stay inside ``cubemc.geometry``: the transforms'
array cores and their scalar adapter are implementation details, and
every other module calls the public transforms.  The filter bank has one
owner, ``cubemc.interp``: no other module reads it, and only the three
calls that keep a positional ``bank`` for their callers take one.  Each
exported name is declared once, in its module's ``__all__``, and the
package joins those lists.  Every module stays below the parser token
count at which CPython's parser grows its token buffer.  The package
A block's cost table, its only search state, is made by the reference
that keys and drops it.  The package sources are parsed with ``ast`` (and
counted with ``tokenize``); only the last check imports the package, to
read what it exports.
"""

import ast
import tokenize
from collections import Counter
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


def cost_table_calls(tree):
    """The calls of ``_CostTable`` in ``tree``, by name or attribute."""
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "_CostTable" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}}


def test_only_the_reference_makes_cost_tables():
    made = {path.stem: cost_table_calls(parse(path)) for path in ALL_SOURCES}
    (reference,) = [node for node in ast.walk(parse(PACKAGE / "motion_search.py"))
                    if isinstance(node, ast.ClassDef) and node.name == "ReferencePicture"]
    where = lambda calls: {ast.dump(c, include_attributes=True) for c in calls}
    assert cost_table_calls(reference)
    assert {p: where(calls) for p, calls in made.items() if calls} == {
        "motion_search": where(cost_table_calls(reference))}


def exporting_modules():
    """The sources ``__init__`` star-imports, in its order."""
    return [PACKAGE / f"{node.module.rpartition('.')[2]}.py"
            for node in parse(PACKAGE / "__init__.py").body
            if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]]


def declared(path):
    """The names of the module's literal ``__all__`` list, or None."""
    for node in parse(path).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def defined(tree):
    """The names a module binds at its top level, imports left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_module_list_is_re_exported():
    assert set(exporting_modules()) == {p for p in ALL_SOURCES if declared(p) is not None}


@pytest.mark.parametrize("path", exporting_modules(), ids=lambda p: p.name)
def test_exported_names_are_defined_in_their_module(path):
    missing = set(declared(path)) - set(defined(parse(path)))
    assert not missing, f"{path.name} exports names it does not define: {missing}"


def test_no_name_in_two_modules():
    counts = Counter(name for path in exporting_modules() for name in declared(path))
    assert [name for name, n in counts.items() if n > 1] == []


PARSER_TOKEN_STEP = 4096  # tokens of one module past which CPython's parser grows its buffer


def parser_tokens(path):
    """The tokens the parser reads from ``path``: ``tokenize``'s, without
    the encoding marker, comments and non-logical newlines."""
    skip = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
    with path.open("rb") as f:
        return sum(t.type not in skip for t in tokenize.tokenize(f.readline))


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_module_below_the_parser_token_step(path):
    # a process that writes no bytecode, as the benchmark's do, compiles
    # every module it imports; one module past the step grew the RSS of
    # ``import cubemc.cli`` by about 300 KB, which that process then keeps
    assert parser_tokens(path) < PARSER_TOKEN_STEP


def test_package_all_joins_the_module_lists():
    import cubemc

    assert cubemc.__all__ == [name for path in exporting_modules() for name in declared(path)]
    # __init__ names no exported symbol itself
    assert not set(names(parse(PACKAGE / "__init__.py"))) & set(cubemc.__all__)
