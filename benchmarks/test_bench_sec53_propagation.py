"""E9 / Section 5.3 — relevant-parts-only change propagation.

"These changes are propagated fast to all clients since the hierarchical
structure of the object permits sending only the relevant parts of the
object for redisplay by the client." The ablation compares bytes-on-wire
between diff propagation and whole-outcome resends as the document grows,
and measures the diff computation itself.
"""

import pytest

from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork
from repro.presentation.spec import diff_presentations
from repro.server import InteractionServer, encoded_size
from repro.workloads import consultation_events, generate_record

VIEWERS = 4
CHANGES = 15


def run_session(tmp_path, sections, tag):
    """One networked conference; returns both ablation arms.

    The server counts what it shipped (``server.propagation.diff_bytes``
    and ``updates``). The whole-outcome resend it did not do is sized
    here: after each change, every member whose known spec moved was
    told something, and a resend would have cost the encoded size of
    that member's whole outcome.
    """
    record = generate_record("prop-doc", sections=sections, components_per_section=4, seed=4)
    db = Database(str(tmp_path / f"db-{tag}"))
    store = MultimediaObjectStore(db)
    store.store_document(record)
    registry = obs.MetricsRegistry()
    full_bytes = 0
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        network = SimulatedNetwork()
        server = InteractionServer(store, network=network)
        clients = [
            ClientModule(f"viewer-{i}", network=network, auto_fetch=False)
            for i in range(VIEWERS)
        ]
        for client in clients:
            network.attach_client(client)
            client.join("prop-doc")
        network.run()
        sessions = [server.session(client.session_id) for client in clients]
        room = server.room(sessions[0].room_id)
        for component, value in consultation_events(record, num_events=CHANGES, seed=9):
            known = [session.known_spec("prop-doc") for session in sessions]
            clients[0].choose(component, value)
            network.run()
            full_bytes += sum(
                encoded_size(room.presentation_for(session.viewer_id).outcome)
                for session, before in zip(sessions, known)
                if session.known_spec("prop-doc") != before
            )
    db.close()
    counters = registry.snapshot()["counters"]
    shipped = {
        name: int(counters.get(f"server.propagation.{name}", 0))
        for name in ("diff_bytes", "updates")
    }
    return {**shipped, "full_bytes": full_bytes}


@pytest.mark.parametrize("sections", [2, 8, 24])
def test_diff_vs_full_resend(benchmark, report, tmp_path, sections):
    shipped = run_session(tmp_path, sections, f"s{sections}")
    benchmark.pedantic(run_session, args=(tmp_path, sections, f"bench{sections}"), rounds=2)
    diff_bytes, full_bytes = shipped["diff_bytes"], shipped["full_bytes"]
    components = sections * 5
    report.table(
        f"Sec 5.3: bytes on wire, {components}-component document, "
        f"{VIEWERS} viewers, {CHANGES} changes",
        ["mode", "bytes", "messages"],
        [
            ["diff (relevant parts only)", diff_bytes, shipped["updates"]],
            # A whole-outcome resend tells every member on every change.
            ["full outcome resend", full_bytes, VIEWERS * CHANGES],
            ["saving", f"{(1 - diff_bytes / full_bytes):.1%}", ""],
        ],
    )
    assert diff_bytes < full_bytes


def test_diff_computation_speed(benchmark):
    document = generate_record("diff-doc", sections=24, components_per_section=4, seed=4)
    old = document.default_presentation()
    new = document.reconfig_presentation(
        {document.component_paths()[1]: "hidden"}
    )
    delta = benchmark(diff_presentations, old, new)
    assert delta


def test_change_buffer_discard(benchmark, report, tmp_path):
    """"The changed objects are ... discarded from the room as soon as they
    are not needed by the clients": with no client acknowledging anything,
    the live server keeps one outcome per member (its known spec, what it
    was last sent) and the room keeps nothing per change."""
    db = Database(str(tmp_path / "db-buffer"))
    store = MultimediaObjectStore(db)
    store.store_document(generate_record("buf-doc", sections=3, components_per_section=3, seed=4))
    server = InteractionServer(store)
    sessions = [server.connect_session(f"v{i}") for i in range(3)]
    room = [server.join_room(s.session_id, "buf-doc")[0] for s in sessions][0]
    component = room.document.component_paths()[1]
    values = room.document.component(component).domain[:2]
    toggle = iter(list(values) * 1_000_000)

    def change():
        server.handle_choice(sessions[0].session_id, component, next(toggle))

    def held():
        return {
            name: len(value)
            for name, value in vars(room).items()
            if isinstance(value, (dict, list, set, tuple))
        }

    change()
    before = held()
    benchmark(change)
    for _ in range(CHANGES):
        change()
    assert held() == before  # no per-change entry anywhere in the room
    paths = set(room.document.component_paths())
    known = [server.session(s.session_id).known_spec("buf-doc") for s in sessions]
    assert all(spec is not None and set(spec) <= paths for spec in known)
    report.line(
        f"  after {CHANGES}+ unacknowledged changes: room holds {before}; "
        f"each member's known spec <= {len(paths)} components"
    )
    db.close()
