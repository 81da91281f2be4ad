"""The benchmark's layer boundaries still fit the program's signatures.

``perfbench/tracing.py`` wraps public entry points of the ``repro`` layers
from outside ``src/`` and reads some of their arguments by position
(``_arg(args, kwargs, i, name)``).  Renaming an entry point breaks the
install; moving or dropping a parameter makes a boundary read the wrong
argument and miscount without an error (the edge tier's
``edge.deferred_joins`` compares the decision's join slot against the
argument it takes for ``slot``).  This test installs every batch boundary,
checks each positional read against the wrapped callable's signature, and
removes the wrappers again.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

#: Every positional read in the tracer, with the callables it reads from:
#: ``(module, owner class or None for a module function, attribute,
#: position, parameter name)``.
READS = [
    ("repro.runtime.engine", "Engine", "run", 1, "specs"),
    ("repro.experiments.runner", None, "measure_sweep_point", 1, "label"),
    ("repro.experiments.runner", None, "measure_sweep_point", 2, "point"),
    ("repro.experiments.fig9", None, "measure_fig9_series", 0, "series_name"),
    ("repro.experiments.adaptive", None, "run_adaptive_arm", 0, "arm"),
    ("repro.core.dhb", "DHBProtocol", "handle_batch", 2, "count"),
    ("repro.core.adaptive", "AdaptiveDHBProtocol", "handle_batch", 2, "count"),
    ("repro.edge.node", "EdgeTier", "admit", 3, "slot"),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module, owner):
    found = importlib.import_module(module)
    return getattr(found, owner) if owner is not None else found


def test_every_positional_read_is_listed():
    reads = {
        (call.args[2].value, call.args[3].value)
        for call in ast.walk(ast.parse(TRACING.read_text()))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_arg"
    }
    assert reads == {(position, name) for *_, position, name in READS}


@pytest.fixture
def installed():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_batch_boundaries(tracer)
        yield tracer
    finally:
        tracer.remove()


@pytest.mark.parametrize(
    "module,owner,attr,position,name",
    READS,
    ids=[f"{owner or module}.{attr}:{name}" for module, owner, attr, _, name in READS],
)
def test_positional_read_matches_signature(installed, module, owner, attr, position, name):
    wrapped = getattr(_owner(module, owner), attr)
    assert hasattr(wrapped, "__wrapped__"), f"{attr} is not a traced boundary"
    parameters = list(inspect.signature(wrapped).parameters)
    assert parameters[position] == name


def test_remove_restores_every_boundary():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.install_batch_boundaries(tracer)
    tracer.remove()
    for module, owner, attr, _, _ in READS:
        assert not hasattr(getattr(_owner(module, owner), attr), "__wrapped__")
