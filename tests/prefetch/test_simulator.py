"""The prefetch session on the live stack (``repro.workloads.prefetch``)."""

import pytest

from repro.db import Database, MultimediaObjectStore
from repro.document import PrimitiveMultimediaComponent
from repro.errors import PrefetchError
from repro.workloads import (
    POLICIES,
    POLICY_CPNET,
    POLICY_NONE,
    POLICY_RANDOM,
    consultation_events,
    generate_record,
    run_prefetch_session,
)


def make_doc():
    return generate_record("sim", sections=4, components_per_section=3, seed=2)


def make_events(rationality=0.9, num=15, seed=7):
    return consultation_events(make_doc(), num_events=num, rationality=rationality, seed=seed)


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    yield MultimediaObjectStore(db)
    db.close()


def run(store, policy, bandwidth=4_000_000, buffer_bytes=3_000_000, events=None, seed=1):
    return run_prefetch_session(
        store, make_doc(), events if events is not None else make_events(),
        policy=policy, buffer_bytes=buffer_bytes,
        bandwidth_bps=bandwidth, think_time_s=4.0, seed=seed,
    )


class TestMechanics:
    def test_unknown_policy_rejected(self, store):
        with pytest.raises(PrefetchError, match="unknown policy"):
            run(store, "psychic")

    def test_report_counts(self, store):
        events = make_events(num=10)
        report = run(store, POLICY_NONE, events=events)
        assert report.events == 10
        assert len(report.waits) == 11  # initial display + one per event
        assert report.demand_requests >= report.demand_hits
        assert report.total_wait_s == pytest.approx(sum(report.waits))
        assert report.fully_rendered

    def test_none_policy_never_prefetches(self, store):
        report = run(store, POLICY_NONE)
        assert report.prefetch_bytes == 0
        assert report.wasted_prefetch_bytes == 0

    def test_prefetch_policies_spend_bytes(self, store):
        assert run(store, POLICY_RANDOM).prefetch_bytes > 0
        assert run(store, POLICY_CPNET).prefetch_bytes > 0

    def test_repeat_choice_hits_cache(self, store):
        doc = make_doc()
        path = next(
            p for p, n in doc.components().items()
            if isinstance(n, PrimitiveMultimediaComponent) and "flat" in n.domain
        )
        events = [(path, "flat"), (path, "icon"), (path, "flat")]
        before = run(store, POLICY_NONE, events=events[:2], buffer_bytes=8_000_000)
        after = run(store, POLICY_NONE, events=events, buffer_bytes=8_000_000)
        # The second display of "flat" is served from the buffer: one more
        # hit, and no more misses — under ``none`` a miss is the only
        # thing that sends a FETCH_PAYLOAD.
        assert after.demand_hits == before.demand_hits + 1
        misses = after.demand_requests - after.demand_hits
        assert misses == before.demand_requests - before.demand_hits

    def test_choice_already_on_screen_waits_for_nothing(self, store):
        doc = make_doc()
        path = next(
            p for p, n in doc.components().items()
            if isinstance(n, PrimitiveMultimediaComponent) and {"flat", "icon"} <= set(n.domain)
        )
        events = [(path, "flat"), (path, "icon"), (path, "icon")]
        report = run(store, POLICY_NONE, events=events)
        assert report.waits[2] > 0
        assert report.waits[3] == 0.0
        assert report.fully_rendered

    def test_tiny_buffer_still_works(self, store):
        report = run(store, POLICY_CPNET, buffer_bytes=64 * 1024)
        assert report.demand_requests > 0  # no crash, just misses
        assert report.fully_rendered

    def test_deterministic_given_seed(self, store):
        events = make_events()
        first = run(store, POLICY_RANDOM, events=events, seed=5)
        second = run(store, POLICY_RANDOM, events=events, seed=5)
        assert first.waits == second.waits


#: The random policy's shuffle seeds EXPERIMENTS.md E7 reports on.
RANDOM_SEEDS = range(8)


class TestPolicyOrdering:
    """The qualitative §4.4 claims: prefetching reduces waiting, and
    preference-guided prefetching is at least as good as random.

    On E7's session: on a record as small as ``make_doc()`` a think
    time's budget covers nearly every alternative, and a lucky shuffle
    can beat the predictor — the regime E7 reports at 16 Mbit/s."""

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        def study():
            return generate_record("study", sections=5, components_per_section=4, seed=2)

        events = consultation_events(study(), num_events=25, rationality=0.9, seed=7)
        db = Database(str(tmp_path_factory.mktemp("ordering") / "db"))
        store = MultimediaObjectStore(db)

        def session(policy, seed=1):
            return run_prefetch_session(
                store, study(), events, policy=policy, buffer_bytes=3_000_000,
                bandwidth_bps=4_000_000, think_time_s=4.0, seed=seed,
            )

        reports = {policy: session(policy) for policy in POLICIES}
        reports["random_seeds"] = [session(POLICY_RANDOM, seed) for seed in RANDOM_SEEDS]
        db.close()
        return reports

    def test_prefetch_beats_none_on_wait(self, reports):
        assert reports[POLICY_CPNET].total_wait_s <= reports[POLICY_NONE].total_wait_s

    def test_cpnet_at_least_matches_random(self, reports):
        cpnet = reports[POLICY_CPNET].total_wait_s
        for shuffled in reports["random_seeds"]:
            assert cpnet <= shuffled.total_wait_s + 1e-9

    def test_hit_rates_ordered(self, reports):
        assert reports[POLICY_CPNET].hit_rate >= reports[POLICY_NONE].hit_rate

    def test_mean_and_max_wait_consistent(self, reports):
        for policy in POLICIES:
            assert reports[policy].mean_wait_s <= reports[policy].max_wait_s
