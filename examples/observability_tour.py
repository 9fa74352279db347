"""A tour of ``repro.obs`` over one traced consultation session.

Runs the Section 1 scenario — retrieve the record, join the room, choose
a presentation, let the server propagate it — with every tier's
always-on instrumentation visible:

* a :class:`DeliveryTracer` follows the choice across the simulated
  network: its delivery tree names every hop (the actor's uplink, each
  viewer's downlink) with its simulated duration, and each delivery's
  end-to-end time is attributed to wire, queueing, batch window or
  retransmit backoff;
* the metrics the session moved — db scans, wire bytes, propagation
  payloads, CP-net sweeps — are printed as a before/after diff.

Then a second act: a :class:`TelemetryMonitor` joins a three-client
consultation *over the simulated network itself* — the flight recorder's
events and the registry's metric diffs arrive as ``TELEMETRY`` /
``TELEMETRY_EVENT`` messages on the monitor's own (modelled) downlink,
and are folded into one text dashboard.

Everything printed runs on the simulated clock (wall-clock histograms
are left out), so two runs print byte-identical output.

Run:  python examples/observability_tour.py
"""

import tempfile

from repro import obs
from repro.client import ClientModule, TelemetryMonitor
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import Link, SimulatedNetwork
from repro.obs import (
    DeliveryTracer,
    analyze_delivery,
    render_dashboard,
    render_delivery_tree,
    to_lines,
    use_dtrace,
)
from repro.server import InteractionServer
from repro.server.protocol import MessageKind

MBPS = 1_000_000

#: Histograms timed on the wall clock: the one part of a run that differs.
WALL_CLOCK = ("db.query_latency_s",)


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        before = obs.snapshot()

        db = Database(f"{workdir}/db")
        store = MultimediaObjectStore(db)
        store.store_document(build_sample_medical_record())

        # Trace every user action; installed before the network and the
        # nodes exist, because each resolves its tracer once at build.
        tracer = DeliveryTracer(sample_every=1)
        with use_dtrace(tracer):
            network = SimulatedNetwork()
            InteractionServer(store, network=network)

            document = store.fetch_document("record-17")
            print(f"retrieved {document.title!r}")

            lee = ClientModule("lee", network=network)
            cho = ClientModule("cho", network=network)
            network.attach_client(lee, downlink=Link(bandwidth_bps=20 * MBPS))
            network.attach_client(
                cho, downlink=Link(bandwidth_bps=1.5 * MBPS, latency_s=0.04)
            )
            lee.join("record-17")
            cho.join("record-17")
            network.run()

            lee.choose("imaging.ct_head", "segmented")
            network.run()

        print("\n-- the choice, delivered (simulated clock) --")
        record = next(r for r in tracer.store if r.kind == MessageKind.CHOICE)
        print(render_delivery_tree(record))
        for delivery in record.deliveries:
            analysis = analyze_delivery(record, delivery)
            spent = ", ".join(
                f"{category} {1000 * seconds:.3f} ms"
                for category, seconds in analysis["categories"].items()
                if seconds
            )
            print(f"  {delivery['node']}: e2e {1000 * analysis['e2e']:.3f} ms; {spent}")

        print("\n-- metrics moved by this session --")
        delta = obs.diff(before, obs.snapshot())
        for line in to_lines(delta).splitlines():
            name = line.split()[1]
            if name.startswith(WALL_CLOCK):
                continue
            if name.partition(".")[0] in ("db", "net", "server", "cpnet"):
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
            log = obs.EventLog(clock=lambda: network.clock.now)
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
                    render_dashboard(
                        monitor.combined(),
                        monitor.events,
                        title="three-doctor consultation, as the monitor saw it",
                        exclude=(
                            *WALL_CLOCK,
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
