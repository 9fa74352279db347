"""Every boundary the wall-clock ledger spans still exists where its
tracer looks for it.

``benchmarks/ledger/layers.py`` names, per layer, the public callables
its tracer wraps: a method is replaced in its class's own ``__dict__``
(an inherited or renamed one raises ``KeyError`` at install), a function
wherever a ``repro`` module binds it. A refactor that moves one of
these names breaks the traced ledger without failing anything else in
tier 1, so this reads the table (by path, read-only: it imports only
``dataclasses``) and resolves every name the same way. A name that
resolves can still be bypassed: the last two tests run the queued
gateway path under a wrapper installed the tracer's way, and every
delivery under a ``SimClock.schedule`` carrier of the tracer's shape.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.gateway import Gateway
from repro.db import Database, MultimediaObjectStore
from repro.net.simclock import SimClock
from repro.workloads import consultation_events, generate_record

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


def test_a_rated_gateway_serves_its_queue_through_the_spanned_receive(tmp_path, monkeypatch):
    """The tracer replaces ``Gateway.receive`` in ``Gateway.__dict__``.
    Every item a rated gateway's queue serves must pass through the
    replacement: an alias bound when the class was made (``_serve =
    Gateway.receive``) resolves above but keeps the unwrapped function,
    and the queued path would vanish from the ``cluster.gateway`` span."""
    original = Gateway.__dict__["receive"]
    spanned = []

    def traced(*args, **kwargs):
        spanned.append(args[3])  # (self, sender, kind, body)
        return original(*args, **kwargs)

    monkeypatch.setattr(Gateway, "receive", traced)
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "spanned"))
        try:
            store = MultimediaObjectStore(db)
            record = generate_record("case-0", sections=2, components_per_section=3, seed=0)
            store.store_document(record)
            harness = ClusterHarness(
                store, ClusterConfig(shards=2, gateways=2, route_rate=50.0)
            )
            served = []
            for gateway in harness.gateways.values():
                def serve(waiting, work=gateway.queue.serve):
                    served.append(waiting[3])  # (ctx, kind, sender, body, since)
                    work(waiting)

                gateway.queue.serve = serve
            clients = [harness.add_client(f"l-{index}") for index in range(4)]
            for client in clients:
                client.join("case-0")
            harness.run()
            for turn, (path, value) in enumerate(consultation_events(record, 6, seed=1)):
                clients[turn % len(clients)].choose(path, value)
            harness.run()
        finally:
            db.close()
    assert not any(client.errors for client in clients)
    assert len(served) > 0
    assert len(spanned) == len(served)
    assert all(body is queued for body, queued in zip(spanned, served))


@pytest.mark.parametrize("reliability", [False, True], ids=["fire-and-forget", "reliable"])
def test_every_delivery_reaches_its_node_through_the_clocks_one_entry(
    tmp_path, monkeypatch, reliability
):
    """The tracer carries a client op's id across the simulated clock by
    replacing ``SimClock.schedule`` with a ``(clock, delay, callback)``
    wrapper that wraps the callback (DESIGN §16). A delivery put on the
    heap any other way (an entry that carries its argument, a direct
    ``heappush``) reaches its node outside every carried callback and
    loses the op. Under a carrier of exactly that signature, every
    node's ``receive`` in a small clustered conference runs inside one."""
    original = SimClock.__dict__["schedule"]
    carried_depth = 0

    def carried(clock, delay, callback):
        def resume():
            nonlocal carried_depth
            carried_depth += 1
            try:
                callback()
            finally:
                carried_depth -= 1

        return original(clock, delay, resume)

    monkeypatch.setattr(SimClock, "schedule", carried)
    received = []
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "carried"))
        try:
            store = MultimediaObjectStore(db)
            record = generate_record("case-0", sections=2, components_per_section=3, seed=0)
            store.store_document(record)
            harness = ClusterHarness(
                store, ClusterConfig(shards=2, gateways=2), reliability=reliability
            )
            clients = [harness.add_client(f"c-{index}") for index in range(3)]
            nodes = [
                harness.directory, *harness.shards.values(), *harness.gateways.values(),
                *clients,
            ]
            for cls in {type(node) for node in nodes}:
                def receive(node, message, _receive=cls.receive):
                    received.append((node.node_id, carried_depth > 0))
                    return _receive(node, message)

                monkeypatch.setattr(cls, "receive", receive)
            for client in clients:
                client.join("case-0")
            harness.run()
            for turn, (path, value) in enumerate(consultation_events(record, 6, seed=1)):
                clients[turn % len(clients)].choose(path, value)
            harness.run()
            clients[0].leave()
            harness.run()
        finally:
            db.close()
    assert not any(client.errors for client in clients)
    assert {node for node, _ in received} == {node.node_id for node in nodes}
    assert [entry for entry in received if not entry[1]] == []
