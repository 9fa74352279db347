"""A tour of ``repro.obs`` over one traced consultation session.

Runs the Section 1 scenario — retrieve the record, join the room, choose
a presentation, let the server propagate it — with every tier's
always-on instrumentation visible:

* ``repro.obs.timeit`` times each phase CLI-style (``[timeit] ...``);
* a :class:`Tracer` driven by the *simulated* clock produces a
  deterministic span tree of the session (byte-identical on every run);
* the server's own ``server.join_room`` / ``server.propagate`` spans are
  shown from the default tracer;
* the metrics the session moved — db scans, wire bytes, propagation
  payloads, CP-net sweeps — are printed as a before/after diff.

Then a second act: a :class:`TelemetryMonitor` joins a three-client
consultation *over the simulated network itself* — the flight recorder's
events and the registry's metric diffs arrive as ``TELEMETRY`` /
``TELEMETRY_EVENT`` messages on the monitor's own (modelled) downlink,
and are folded into one text dashboard.

Run:  python examples/observability_tour.py
"""

import tempfile

from repro import obs
from repro.client import ClientModule, TelemetryMonitor
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import Link, SimulatedNetwork
from repro.obs import Tracer, render_span_tree, timeit, to_lines
from repro.server import InteractionServer

MBPS = 1_000_000


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        before = obs.snapshot()

        with timeit("db.setup"):
            db = Database(f"{workdir}/db")
            store = MultimediaObjectStore(db)
            store.store_document(build_sample_medical_record())

        network = SimulatedNetwork()
        server = InteractionServer(store, network=network)

        # Session-level spans run on the *simulated* clock: durations are
        # wire time, and the tree is identical on every run.
        session_trace = Tracer(clock=lambda: network.clock.now)

        with timeit("consultation"), session_trace.span("session"):
            with session_trace.span("retrieve"):
                document = store.fetch_document("record-17")
                print(f"retrieved {document.title!r}")

            lee = ClientModule("lee", network=network)
            cho = ClientModule("cho", network=network)
            network.attach_client(lee, downlink=Link(bandwidth_bps=20 * MBPS))
            network.attach_client(
                cho, downlink=Link(bandwidth_bps=1.5 * MBPS, latency_s=0.04)
            )

            with session_trace.span("join_room"):
                lee.join("record-17")
                cho.join("record-17")
                network.run()

            with session_trace.span("choose"):
                lee.choose("imaging.ct_head", "segmented")

            with session_trace.span("propagate"):
                network.run()

        print("\n-- session span tree (simulated clock) --")
        print(render_span_tree(session_trace.last()))

        print("\n-- server-side spans (default tracer, wall clock) --")
        for span in server._trace.roots[-3:]:
            print(render_span_tree(span))

        print("\n-- metrics moved by this session --")
        delta = obs.diff(before, obs.snapshot())
        for line in to_lines(delta).splitlines():
            if line.split()[1].partition(".")[0] in ("db", "net", "server", "cpnet"):
                print(line)

        db.close()


def monitored_consultation() -> None:
    """Act two: the machinery watching itself over its own network."""
    with tempfile.TemporaryDirectory() as workdir:
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            network = SimulatedNetwork()
            # Flight recorder on the simulated clock: every event is
            # stamped with wire time, so the recording is reproducible.
            log = obs.EventLog(clock=lambda: network.clock.now, tracer=obs.trace)
            with obs.use_event_log(log):
                db = Database(f"{workdir}/db")
                store = MultimediaObjectStore(db)
                store.store_document(build_sample_medical_record())
                server = InteractionServer(store, network=network)

                # The monitor is just another node on the hub.
                monitor = TelemetryMonitor("ops", network=network)
                network.attach_client(monitor)
                monitor.connect()
                network.run()

                doctors = []
                for name, mbps in (("lee", 20), ("cho", 1.5), ("rao", 8)):
                    doctor = ClientModule(name, network=network)
                    network.attach_client(
                        doctor, downlink=Link(bandwidth_bps=mbps * MBPS)
                    )
                    doctors.append(doctor)
                    doctor.join("record-17")
                network.run()

                doctors[0].choose("imaging.ct_head", "segmented")
                network.run()
                doctors[1].choose("labs", "hidden")
                network.run()
                for doctor in doctors:
                    doctor.leave()
                network.run()

                print(
                    f"\nmonitor received {len(monitor.snapshots)} telemetry "
                    f"snapshots and {len(monitor.events)} events "
                    f"({len(monitor.warn_events())} WARN+) over the wire"
                )
                print()
                # Excluded: wall-clock latency histograms, plus the
                # byte/delay accounting that telemetry traffic itself
                # perturbs (a telemetry payload's encoded size depends
                # on the wall-clock floats inside it). Everything left
                # is simclock-driven and byte-identical across runs.
                print(
                    monitor.render(
                        title="three-doctor consultation, as the monitor saw it",
                        exclude=(
                            "db.query_latency_s",
                            "trace.",
                            "net.bytes_total",
                            "net.queue_delay_s",
                            "net.link.monitor-",
                            "server.bytes_out",
                        ),
                        max_events=12,
                    )
                )
                print(f"\nserver stats at close: {server.stats()}")
                db.close()


if __name__ == "__main__":
    main()
    monitored_consultation()
