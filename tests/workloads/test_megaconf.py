"""The mega-conference workload: schedule spec, flash crowd, chaos.

What matters here: the schedule builder is deterministic and actually
produces a >=10x keynote flash crowd; a full conference day runs clean
through an admission-controlled cluster (every join eventually lands,
migration leaves no ghosts); and the convergence variant is itself
bit-reproducible — the precondition for the chaos suite's byte-identity
verdicts.
"""

import pytest

from repro import obs
from repro.cluster import AdmissionConfig, ClusterConfig
from repro.db import Database, MultimediaObjectStore
from repro.workloads import build_conference_schedule, run_megaconf
from repro.workloads.megaconf import percentile, run_megaconf_convergence


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def fresh_store(tmp_path, name):
    db = Database(str(tmp_path / name))
    return MultimediaObjectStore(db)


class TestSchedule:
    def test_builder_is_deterministic(self):
        assert build_conference_schedule() == build_conference_schedule()

    def test_parallel_tracks_partition_the_pool_each_wave(self):
        schedule = build_conference_schedule(
            tracks=3, slots_per_track=2, attendees_per_session=4
        )
        waves = {}
        for slot in schedule.slots:
            if not slot.keynote:
                waves.setdefault(slot.start_s, []).append(slot)
        for slots in waves.values():
            seen = [a for slot in slots for a in slot.attendees]
            # disjoint tracks, full coverage: everyone is in exactly one room
            assert sorted(seen) == sorted(schedule.attendees)

    def test_migration_rotates_rooms_between_waves(self):
        schedule = build_conference_schedule(tracks=3, slots_per_track=2)
        by_wave = {}
        for slot in schedule.slots:
            if not slot.keynote:
                for attendee in slot.attendees:
                    by_wave.setdefault(attendee, []).append(slot.track)
        # session-boundary migration: every attendee changes track
        assert all(tracks[0] != tracks[1] for tracks in by_wave.values())

    def test_keynote_is_a_flash_crowd(self):
        schedule = build_conference_schedule()
        keynote = schedule.keynote
        assert keynote is not None
        assert tuple(sorted(keynote.attendees)) == tuple(sorted(schedule.attendees))
        assert schedule.keynote_join_ratio >= 10.0

    def test_percentile_interpolates(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestRunMegaconf:
    def test_full_day_runs_clean(self, tmp_path):
        store = fresh_store(tmp_path, "day")
        result = run_megaconf(store)
        assert result["errors"] == []
        assert result["late_joins"] == 0
        schedule = result["schedule"]
        # every attendee joined once per wave plus the keynote
        waves = len({s.start_s for s in schedule.slots if not s.keynote})
        assert result["join_latency"]["track"]["n"] == (
            len(schedule.attendees) * waves
        )
        assert result["join_latency"]["keynote"]["n"] == len(schedule.attendees)
        assert result["join_latency"]["keynote"]["p99"] is not None
        assert result["admission"]["control_shed"] == 0
        assert result["admission"]["parked_residue"] == 0

    def test_day_is_bit_reproducible(self, tmp_path):
        outcomes = []
        for run in range(2):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                store = fresh_store(tmp_path, f"bit-{run}")
                result = run_megaconf(store)
                outcomes.append(
                    (
                        result["displayed"],
                        result["join_samples"],
                        result["network_messages"],
                        result["network_bytes"],
                        result["sim_seconds"],
                    )
                )
        assert outcomes[0] == outcomes[1]


class TestMegaconfConvergence:
    def test_control_run_defers_joins_but_stays_clean(self, tmp_path):
        store = fresh_store(tmp_path, "conv")
        result = run_megaconf_convergence(store, quick=True)
        assert result["errors"] == []
        assert result["delivery_failures"] == []
        assert result["admission"]["deferred"] > 0, (
            "the keynote wave must actually trip JOIN deferral"
        )
        assert result["admission"]["shed"] == 0
        assert result["admission"]["control_shed"] == 0
        assert result["admission"]["parked_residue"] == 0
        # everyone converges on the keynote room's final state
        states = list(result["displayed"].values())
        assert all(state == states[0] for state in states)

    def test_gateway_crash_heals_through_failover(self, tmp_path):
        store = fresh_store(tmp_path, "gwcrash")
        result = run_megaconf_convergence(store, quick=True, gateway_crash=True)
        assert result["gateway_victim"] is not None
        assert len(result["gateway_failovers"]) == 1
        assert result["errors"] == []
        assert result["delivery_failures"] == []
        states = list(result["displayed"].values())
        assert all(state == states[0] for state in states)

    def test_convergence_scenario_is_bit_reproducible(self, tmp_path):
        outcomes = []
        for run in range(2):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                store = fresh_store(tmp_path, f"convbit-{run}")
                result = run_megaconf_convergence(store, quick=True)
                outcomes.append(
                    (
                        result["displayed"],
                        result["network_messages"],
                        result["network_bytes"],
                        result["sim_seconds"],
                    )
                )
        assert outcomes[0] == outcomes[1]


#: The ledger's ``megaconf_day`` schedule and cluster, shrunk to four
#: tracks. A speaker whose track join is deferred past the keynote's
#: start used to fire its queued choices into the keynote room
#: (``UnknownValueError``), and the track session it never left stayed
#: on its shard to the end.
LEDGER_SCHEDULE = dict(
    tracks=4, slots_per_track=2, attendees_per_session=12, events_per_session=8,
    keynote_events=16, keynote_window_s=0.25, drain_s=60.0,
)
LEDGER_CONFIG = ClusterConfig(
    shards=4, gateways=2, service_rate=240.0,
    admission=AdmissionConfig(
        depth_defer=8, depth_shed=16, defer_limit=1024, retry_after_s=0.25
    ),
)


def ghost_sessions(harness):
    """Sessions a live shard's server holds that no client is in."""
    current = {client.session_id for client in harness.clients.values()}
    return sorted(
        session_id
        for shard_id, shard in harness.shards.items()
        if harness.network.has_node(shard_id)
        for session_id in shard.server.session_ids
        if session_id not in current
    )


@pytest.mark.parametrize("seed", range(17, 27))
def test_a_ledger_scale_day_misroutes_no_op_and_leaves_no_ghost(tmp_path, seed):
    store = fresh_store(tmp_path, f"ledger-{seed}")
    result = run_megaconf(
        store, build_conference_schedule(**LEDGER_SCHEDULE), config=LEDGER_CONFIG, seed=seed
    )
    assert result["errors"] == []
    assert ghost_sessions(result["harness"]) == []
