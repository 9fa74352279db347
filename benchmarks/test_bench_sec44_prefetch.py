"""E7 / Section 4.4 — pre-fetching and response time.

Regenerates the paper's performance argument: "Large amounts of
information must be delivered to the user quickly, on demand ... we
download components most likely to be requested by the user, using the
user's buffer as a cache." The series compares no-prefetch, random
prefetch and CP-net-guided prefetch across bandwidths and buffer sizes,
plus the §4.4 tuning-variable adaptation of the presentation itself.
Every session runs on the live stack: one ``InteractionServer`` and one
``ClientModule`` over a bandwidth-limited uplink/downlink pair.
"""

import pytest

from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.presentation import (
    BANDWIDTH_HIGH,
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
    TUNING_VARIABLE,
    install_bandwidth_tuning,
)
from repro.workloads import (
    POLICIES,
    consultation_events,
    generate_record,
    run_prefetch_session,
)

MBPS = 1_000_000


def study_record():
    return generate_record("study", sections=5, components_per_section=4, seed=2)


STUDY_EVENTS = consultation_events(study_record(), num_events=25, rationality=0.9, seed=7)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("sec44") / "db"))
    yield MultimediaObjectStore(db)
    db.close()


def run_policy(store, policy, bandwidth_bps=4 * MBPS, buffer_bytes=3 * MBPS):
    return run_prefetch_session(
        store,
        study_record(),
        STUDY_EVENTS,
        policy=policy,
        buffer_bytes=buffer_bytes,
        bandwidth_bps=bandwidth_bps,
        think_time_s=4.0,
        seed=1,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_prefetch_policy(benchmark, report, store, policy):
    result = benchmark.pedantic(run_policy, args=(store, policy), rounds=3)
    report.line(
        f"  policy={policy:7s} hit_rate={result.hit_rate:6.1%} "
        f"mean_wait={result.mean_wait_s:.3f}s "
        f"prefetched={result.prefetch_bytes / 1024:.0f}KB "
        f"wasted={result.wasted_prefetch_bytes / 1024:.0f}KB"
    )
    assert result.demand_requests > 0


def test_prefetch_sweep(benchmark, report, store):
    """The full grid: hit rate per (policy, bandwidth) and (policy, buffer)."""
    rows = []

    def sweep():
        rows.clear()
        for bandwidth in (1 * MBPS, 4 * MBPS, 16 * MBPS):
            for policy in POLICIES:
                result = run_policy(store, policy, bandwidth_bps=bandwidth)
                rows.append(
                    [
                        f"{bandwidth / MBPS:.0f} Mbit/s",
                        policy,
                        f"{result.hit_rate:.1%}",
                        f"{result.mean_wait_s:.3f}s",
                        f"{result.total_wait_s:.2f}s",
                    ]
                )
        return rows

    benchmark.pedantic(sweep, rounds=1)
    report.table(
        "Sec 4.4: prefetch policies across bandwidths (buffer 3 MB)",
        ["bandwidth", "policy", "hit rate", "mean wait", "total wait"],
        rows,
    )
    # Qualitative claim: prefetching never hurts and usually helps.
    by_key = {(row[0], row[1]): float(row[4][:-1]) for row in rows}
    for bandwidth in ("1 Mbit/s", "4 Mbit/s", "16 Mbit/s"):
        assert by_key[(bandwidth, "cpnet")] <= by_key[(bandwidth, "none")] + 1e-6


def test_buffer_size_sensitivity(benchmark, report, store):
    rows = []

    def sweep():
        rows.clear()
        for buffer_bytes in (1 * MBPS, 3 * MBPS, 8 * MBPS):
            for policy in POLICIES:
                result = run_policy(store, policy, buffer_bytes=buffer_bytes)
                rows.append(
                    [
                        f"{buffer_bytes / MBPS:.0f} MB",
                        policy,
                        f"{result.hit_rate:.1%}",
                        f"{result.mean_wait_s:.3f}s",
                    ]
                )
        return rows

    benchmark.pedantic(sweep, rounds=1)
    report.table(
        "Sec 4.4: buffer-size sensitivity at 4 Mbit/s",
        ["buffer", "policy", "hit rate", "mean wait"],
        rows,
    )


def test_tuning_variable_adaptation(benchmark, report):
    """§4.4 option 1: the tuning variable shrinks the presentation payload
    as measured bandwidth drops.

    What the timed loop times: a document answers its §5.1 queries from
    its compilation's memo, served or not, so after the first call this
    is a memo hit (key, copy, subtree hiding) plus ``presentation_bytes``
    — not the sweep, which E18's ``test_sweep_timing`` times. The sizes
    reported below do not depend on it."""
    document = build_sample_medical_record()
    # A 4 KB low-bandwidth budget separates the levels on this record:
    # medium still affords icons/transcripts, low hides them too.
    install_bandwidth_tuning(document, low_budget=4 * 1024)

    def presentation_bytes(level):
        outcome = document.reconfig_presentation({TUNING_VARIABLE: level})
        return document.presentation_bytes(outcome)

    benchmark(presentation_bytes, BANDWIDTH_MEDIUM)
    rows = [
        [level, f"{presentation_bytes(level) / 1024:.0f} KB"]
        for level in (BANDWIDTH_HIGH, BANDWIDTH_MEDIUM, BANDWIDTH_LOW)
    ]
    report.table(
        "Sec 4.4: tuning-variable presentation payload per bandwidth level",
        ["level", "presentation bytes"],
        rows,
    )
    sizes = [float(row[1].split()[0]) for row in rows]
    assert sizes[0] >= sizes[1] >= sizes[2]
