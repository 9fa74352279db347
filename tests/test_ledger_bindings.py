"""Every boundary the wall-clock ledger spans still exists where its
tracer looks for it.

``benchmarks/ledger/layers.py`` names, per layer, the public callables
its tracer wraps: a method is replaced in its class's own ``__dict__``
(an inherited or renamed one raises ``KeyError`` at install), a function
wherever a ``repro`` module binds it. A refactor that moves one of
these names breaks the traced ledger without failing anything else in
tier 1, so this reads the table (by path, read-only: it imports only
``dataclasses``) and resolves every name the same way.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("ledger_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


BOUNDARIES = [
    (layer.name, module_name, class_name, name)
    for layer in _layers().SPANNED
    for module_name, class_name, names in layer.boundary
    for name in names
]


def test_the_ledger_spans_something():
    assert len({layer for layer, *_ in BOUNDARIES}) >= 10


@pytest.mark.parametrize(
    "layer,module_name,class_name,name",
    BOUNDARIES,
    ids=[f"{layer}:{cls or mod}.{name}" for layer, mod, cls, name in BOUNDARIES],
)
def test_every_spanned_boundary_resolves(layer, module_name, class_name, name):
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, name, None)), f"{module_name} has no function {name}"
        return
    cls = getattr(module, class_name, None)
    assert isinstance(cls, type), f"{module_name} has no class {class_name}"
    assert name in cls.__dict__, (
        f"{class_name}.{name} is not defined on {class_name} itself: "
        f"the {layer!r} layer's tracer would not find it"
    )
    assert callable(cls.__dict__[name])
