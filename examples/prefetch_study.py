"""Pre-fetching study (the paper's §4.4 performance discussion).

Replays the same scripted consultation through a live client — its
bounded buffer, its bandwidth-limited link to the interaction server —
under three prefetch policies: none (pure demand caching), random, and
CP-net-guided. Prints the response-time and hit-rate comparison the
paper's pre-fetching extension targets.

Run:  python examples/prefetch_study.py
"""

import tempfile

from repro.db import Database, MultimediaObjectStore
from repro.workloads import (
    POLICIES,
    consultation_events,
    generate_record,
    run_prefetch_session,
)

MBPS = 1_000_000


def run_study(
    store: MultimediaObjectStore,
    bandwidth_bps: float,
    buffer_bytes: int,
    rationality: float,
) -> None:
    events = consultation_events(
        generate_record("study", sections=5, components_per_section=4, seed=2),
        num_events=25,
        rationality=rationality,
        seed=7,
    )
    print(f"\nbandwidth={bandwidth_bps / MBPS:.1f} Mbit/s, "
          f"buffer={buffer_bytes / MBPS:.1f} MB, rationality={rationality}")
    print(f"  {'policy':8s} {'hit rate':>8s} {'mean wait':>10s} "
          f"{'max wait':>9s} {'prefetched':>11s} {'wasted':>8s}")
    for policy in POLICIES:
        report = run_prefetch_session(
            store,
            generate_record("study", sections=5, components_per_section=4, seed=2),
            events,
            policy=policy,
            buffer_bytes=buffer_bytes,
            bandwidth_bps=bandwidth_bps,
            think_time_s=4.0,
            seed=1,
        )
        print(f"  {policy:8s} {report.hit_rate:8.2%} {report.mean_wait_s:9.2f}s "
              f"{report.max_wait_s:8.2f}s {report.prefetch_bytes / 1024:9.0f}KB "
              f"{report.wasted_prefetch_bytes / 1024:6.0f}KB")


def main() -> None:
    print("Prefetch policy comparison (same viewer session for every policy)")
    with tempfile.TemporaryDirectory() as workdir:
        db = Database(f"{workdir}/study-db")
        store = MultimediaObjectStore(db)
        for bandwidth in (1 * MBPS, 4 * MBPS, 16 * MBPS):
            run_study(store, bandwidth, buffer_bytes=3 * MBPS, rationality=0.9)
        print("\nSensitivity to buffer size at 4 Mbit/s:")
        for buffer_bytes in (1 * MBPS, 3 * MBPS, 8 * MBPS):
            run_study(store, 4 * MBPS, buffer_bytes=buffer_bytes, rationality=0.9)
        db.close()


if __name__ == "__main__":
    main()
