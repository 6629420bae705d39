"""The benchmark under ``perfbench/`` calls into cubemc; keep those entry points.

The benchmark is read here, never imported or run: its files are parsed
with ``ast``.  The tracer patches module attributes by name, and the
micro-timings import and call cubemc functions directly, so a rename or
a dropped parameter breaks the benchmark even when every other test
passes.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from cubemc import evaluate, motion_search
from cubemc.evaluate import EvalConfig, run_eval
from cubemc.motion_model import MotionVector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _wrapped():
    for node in ast.walk(_tree(PERFBENCH / "tracer.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no WRAPPED")


def _cubemc_imports(tree):
    """(module, name, bound name) for every ``from cubemc... import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubemc":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_benchmark_sources_found():
    assert (PERFBENCH / "tracer.py") in SOURCES
    assert (PERFBENCH / "micro.py") in SOURCES


@pytest.mark.parametrize("module,attr,layer", _wrapped())
def test_traced_attributes_resolve(module, attr, layer):
    mod = importlib.import_module(f"cubemc.{module}")
    assert callable(getattr(mod, attr, None)), f"cubemc.{module}.{attr} is gone"
    defining, name = layer.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"cubemc.{defining}"), name, None))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imported_names_exist(path):
    for module, name, _ in _cubemc_imports(_tree(path)):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_direct_calls_bind(path):
    """Every call of an imported cubemc name matches that name's signature."""
    tree = _tree(path)
    bound = {
        local: getattr(importlib.import_module(module), name)
        for module, name, local in _cubemc_imports(tree)
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        fn = bound.get(node.func.id)
        if fn is None or not callable(fn):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        args = [None] * len(node.args)
        kwargs = {k.arg: None for k in node.keywords}
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError(f"{path.name}:{node.lineno} {node.func.id}: {exc}") from None


def test_benchmark_keywords_exist():
    tzs = inspect.signature(motion_search.tzs_search).parameters
    assert "advanced" in tzs and "pred_for_bits" in tzs
    assert "trans_result" in inspect.signature(motion_search.mode_decide).parameters
    ref = motion_search.ReferencePicture("frame", 7)
    assert (ref.frame, ref.poc) == ("frame", 7)


def test_searches_pass_advanced_by_keyword(monkeypatch):
    """The tracer tells translational from advanced searches by the keyword."""
    seen = []

    def record(fn):
        def wrapper(*args, **kwargs):
            seen.append(kwargs.get("advanced"))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluate, "tzs_search", record(motion_search.tzs_search))
    monkeypatch.setattr(motion_search, "tzs_search", record(motion_search.tzs_search))
    run_eval(EvalConfig(input="synthetic", face_size=32, synth_frames=2,
                        synth_velocity=(1.0, 0.0, 0.0)))
    assert set(seen) == {False, True}


def test_singular_field_builds_take_one_mv(monkeypatch):
    """The tracer reads ``args[1].dx_q2`` of every traced field build.

    ``motion_search.build_correspondence_field`` is wrapped by name, so a
    batch of MVs passed to it would crash every traced run; batches go
    through ``build_correspondence_fields`` instead.
    """
    seen = []
    inner = motion_search.build_correspondence_field

    def record(*args, **kwargs):
        seen.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(motion_search, "build_correspondence_field", record)
    run_eval(EvalConfig(input="synthetic", face_size=32, synth_frames=2,
                        synth_velocity=(1.0, 0.0, 0.0)))
    assert seen
    assert all(isinstance(mv, MotionVector) for mv in seen)
