"""A tour of ``repro.cpnet.compiled``: the compiled hot path + owned memo.

The interpreted CP-net engine re-derives the topological order and
re-scans every CPT rule list on every ``best_completion`` — per viewer,
per choice. This tour shows what compilation buys:

1. **Compile once per structural version** — the net is frozen into a
   topological sweep over flat ``parent values -> best value`` tables;
   specificity arbitration is resolved at compile time.
2. **Byte-identical answers, much faster** — the compiled and the
   interpreted engine produce the same dicts in the same key order.
3. **Cross-viewer sharing** — each compilation owns a ``CompletionCache``
   of its completed outcomes, keyed by the evidence alone: when eight
   room members impose the same constraints, one sweep serves them all.
4. **Precise §4.2 invalidation** — a global operation bumps the
   structural version and recompiles once; the old compilation's
   completions go with it, nobody else's are touched.

Run:  python examples/cpnet_compile_tour.py
"""

import json
import tempfile
import time

from repro import obs
from repro.cpnet import compile_cpnet, interpreted_mode
from repro.cpnet.reasoning import best_completion
from repro.db import Database, MultimediaObjectStore
from repro.server import InteractionServer
from repro.workloads import generate_record

MEMBERS = 8


def main():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        doc = generate_record("tour", sections=5, components_per_section=4, seed=7)
        net = doc.network

        print("== 1. Compile once per structural version ==")
        compiled = compile_cpnet(net)
        flat_rows = sum(len(t.orders) for t in compiled._sweep)
        print(f"  {compiled!r}")
        print(
            f"  {len(net)} variables frozen into {flat_rows} flat rows; "
            f"structure_version={net.structure_version}"
        )
        assert compile_cpnet(net) is compiled, "same version -> same compilation"

        print("\n== 2. Byte-identical to the interpreted engine ==")
        path = doc.component_paths()[0]
        evidence = {path: doc.component(path).domain[-1]}
        with interpreted_mode():
            reference = best_completion(net, evidence)
        fast = compiled.best_completion(evidence)
        assert json.dumps(fast) == json.dumps(reference)
        print(f"  evidence {evidence} -> same {len(fast)}-component outcome")
        n = 300
        started = time.perf_counter()
        with interpreted_mode():
            for _ in range(n):
                best_completion(net, evidence)
        slow_s = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(n):
            compiled.best_completion(evidence)
        fast_s = time.perf_counter() - started
        print(
            f"  {n} sweeps: interpreted {slow_s * 1000:.1f} ms, "
            f"compiled {fast_s * 1000:.1f} ms ({slow_s / fast_s:.1f}x)"
        )

        print(f"\n== 3. {MEMBERS} members share one compilation's completions ==")
        with tempfile.TemporaryDirectory() as workdir:
            db = Database(f"{workdir}/db")
            try:
                store = MultimediaObjectStore(db)
                store.store_document(
                    generate_record("rec", sections=5, components_per_section=4, seed=7)
                )
                server = InteractionServer(store)
                sessions = []
                for index in range(MEMBERS):
                    session = server.connect_session(f"viewer-{index}")
                    server.join_room(session.session_id, "rec")
                    sessions.append(session)

                def memo(name):
                    return int(registry.counter(f"cpnet.completion_cache.{name}").value)

                print(
                    f"  after {MEMBERS} joins: {memo('hits')} memo hits, "
                    f"{memo('misses')} misses — one sweep served "
                    f"{memo('hits') + 1} identical presentations"
                )
                room = server.room(server.room_ids[0])
                component = room.document.component_paths()[2]
                value = room.document.component(component).domain[0]
                server.handle_choice(sessions[0].session_id, component, value)
                print(
                    f"  one shared choice on {component!r}: every member "
                    f"reconfigures -> {memo('hits')} hits total"
                )

                print("\n== 4. A global operation replaces the compilation ==")
                before = room.document.network.structure_version
                server.handle_operation(
                    sessions[0].session_id, component, "segment",
                    global_importance=True,
                )
                net_version = room.document.network.structure_version
                print(
                    f"  structure_version {before} -> {net_version}; "
                    f"{memo('invalidations')} completions left with the "
                    f"old compilation"
                )
                fresh = compile_cpnet(room.document.network).completions
                print(f"  the new compilation's memo holds {len(fresh)} so far")
            finally:
                db.close()

        print("\n== The cpnet panel of the stock dashboard ==")
        print(
            obs.render_dashboard(
                registry.snapshot(),
                title="cpnet compilation telemetry",
                include=("cpnet.compile", "cpnet.completion_cache.", "cpnet.completions"),
                max_events=0,
            )
        )


if __name__ == "__main__":
    main()
