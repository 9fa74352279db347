"""Every counter and gauge a small run leaves in the registry, pinned.

One hub consultation and one clustered conference run under a fresh
registry; at the end, every counter and gauge — by name and label set —
must equal ``registry_pin.json``. A series that is renamed, loses or
gains a label set, or moves by one count shows up here, whichever way
its value is kept (an instrument the owner writes, or a reading of the
owner's own tally taken at snapshot). The same runs' histogram
summaries, and the dashboard rows printed from them, must be ordered:
min <= p50 <= p90 <= p99 <= max.

Regenerate the file only for a deliberate change of what a series
counts, and say why where the change is recorded:
``PYTHONPATH=src python -m tests.obs.test_registry_pin > tests/obs/registry_pin.json``
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Any

import pytest

from repro import obs
from repro.client import ClientModule
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.admission import AdmissionConfig
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork
from repro.obs.dashboard import render_dashboard
from repro.server import InteractionServer
from repro.workloads import generate_record
from tests.integration.test_bounded_growth import _choosable, run_cycles

PIN = Path(__file__).with_name("registry_pin.json")
DOCS = ("case-0", "case-1")


def _store(root: Path) -> tuple[Database, MultimediaObjectStore]:
    db = Database(str(root / "db"))
    store = MultimediaObjectStore(db)
    for index, doc_id in enumerate(DOCS):
        store.store_document(
            generate_record(doc_id, sections=2, components_per_section=3, seed=index)
        )
    return db, store


def hub_run(root: Path) -> dict[str, Any]:
    """Three viewers on one hub: joins, shared and personal choices, a
    subscription that comes and goes, an annotation, two leaves."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        db, store = _store(root)
        try:
            network = SimulatedNetwork()
            InteractionServer(store, network=network, interest_mode="cpnet")
            clients = [ClientModule(f"dr-{j}", network=network) for j in range(3)]
            for client in clients:
                network.attach_client(client)
            first, second, third = clients
            first.join(DOCS[0])
            second.join(DOCS[0])
            third.join(DOCS[1])
            network.run()
            paths = _choosable(store.fetch_document(DOCS[0]))
            for index in (-1, 0):
                domain = store.fetch_document(DOCS[0]).network.variable(paths[0]).domain
                first.choose(paths[0], domain[index])
                network.run()
            personal = store.fetch_document(DOCS[0]).network.variable(paths[1]).domain
            second.choose(paths[1], personal[-1], scope="personal")
            second.subscribe(paths[:2], replace=True)
            network.run()
            second.unsubscribe()
            first.annotate(paths[1], {"text": "seen"})
            network.run()
            second.leave()
            third.leave()
            network.run()
            return registry.snapshot()
        finally:
            db.close()


def cluster_run(root: Path) -> dict[str, Any]:
    """Two rooms on three shards and two gateways with admission and
    interest on: one bounded-growth cycle, then a shard crash, then a
    choice in every room through the promoted owner."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        db, store = _store(root)
        try:
            harness = ClusterHarness(
                store,
                ClusterConfig(
                    shards=3,
                    gateways=2,
                    interest_mode="cpnet",
                    admission=AdmissionConfig(),
                    failure_timeout=1.5,
                ),
            )
            run_cycles(harness, list(DOCS), 1, lambda cycle: None)
            harness.start(until=12.0)
            harness.run_until(2.0)
            harness.crash(harness.owner_of(DOCS[0]))
            harness.run()
            for doc_id in DOCS:
                host = harness.clients[f"{doc_id}-host"]
                path = _choosable(store.fetch_document(doc_id))[0]
                value = store.fetch_document(doc_id).network.variable(path).domain[-1]
                host.choose(path, value)
            harness.run()
            return registry.snapshot()
        finally:
            db.close()


def runs(root: Path) -> dict[str, dict[str, Any]]:
    """Each run's whole registry snapshot, by run name."""
    (root / "hub").mkdir()
    (root / "cluster").mkdir()
    return {"hub": hub_run(root / "hub"), "cluster": cluster_run(root / "cluster")}


def pinned(snapshots: dict[str, dict[str, Any]]) -> dict[str, dict[str, dict[str, float]]]:
    """Each run's counters and gauges: what ``registry_pin.json`` holds."""
    return {
        run: {"counters": snapshot["counters"], "gauges": snapshot["gauges"]}
        for run, snapshot in snapshots.items()
    }


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    return runs(tmp_path_factory.mktemp("runs"))


def test_every_counter_and_gauge_matches_the_pin(snapshots):
    assert pinned(snapshots) == json.loads(PIN.read_text())


def test_every_histogram_summary_is_ordered(snapshots):
    """min <= p50 <= p90 <= p99 <= max in every summary with a count, and
    p50 <= p90 <= p99 <= max on every histogram row of its dashboard."""
    disordered = []
    for run, snapshot in snapshots.items():
        for name, summary in snapshot["histograms"].items():
            values = [summary[key] for key in ("min", "p50", "p90", "p99", "max")]
            if summary["count"] and values != sorted(values):
                disordered.append((run, name, values))
        rows = [row for row in render_dashboard(snapshot).splitlines() if " p90=" in row]
        assert len(rows) == len(snapshot["histograms"])
        for row in rows:
            fields = dict(field.split("=") for field in row.split()[1:])
            if fields["count"] == "0":
                continue
            values = [float(fields[key]) for key in ("p50", "p90", "p99", "max")]
            if values != sorted(values):
                disordered.append((run, "dashboard", row))
    assert disordered == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(pinned(runs(Path(workdir))), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
