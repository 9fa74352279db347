"""The prefetch session over a lossy link, and the client's §4.4 ladder.

Loss is a seeded :class:`~repro.chaos.FaultPlan` over the reliable
transport; degradation is the live client's own: a ``FETCH_PAYLOAD`` the
transport gives up on renders a placeholder and steps the viewer's
personal ``tuning.bandwidth`` down.
"""

import pytest

from repro.chaos import FaultPlan
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.presentation import (
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
    install_bandwidth_tuning,
)
from repro.server.protocol import MessageKind
from repro.workloads import (
    POLICY_NONE,
    consultation_events,
    generate_record,
    run_prefetch_session,
)


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    yield MultimediaObjectStore(db)
    db.close()


def make_doc():
    return generate_record("sim", sections=4, components_per_section=3, seed=2)


def make_events(doc, num=15, seed=7):
    return consultation_events(doc, num_events=num, rationality=0.9, seed=seed)


def run(store, doc, events=None, plan=None):
    return run_prefetch_session(
        store, doc, events if events is not None else make_events(doc),
        policy=POLICY_NONE, buffer_bytes=3_000_000,
        bandwidth_bps=2_000_000, think_time_s=4.0, seed=1, plan=plan,
    )


def lossy(seed=1, drop_rate=0.3):
    return FaultPlan(seed=seed, drop_rate=drop_rate)


class TestLossyLink:
    def test_loss_inflates_waits_and_counts_retries(self, store):
        doc = make_doc()
        events = make_events(doc)
        clean = run(store, doc, events=events)
        noisy = run(store, make_doc(), events=events, plan=lossy(drop_rate=0.4))
        assert noisy.retries > clean.retries
        assert noisy.total_wait_s > clean.total_wait_s

    def test_lossy_replay_is_seeded(self, store):
        a = run(store, make_doc(), plan=lossy())
        b = run(store, make_doc(), plan=lossy())
        assert a.retries == b.retries > 0
        assert a.waits == b.waits


#: A consultation that walks the record section by section. Every re-shown
#: section re-demands its children at their CPT-preferred presentation —
#: heavy forms (flat CT, ECG trace) unless the tuning evidence has
#: re-partitioned the preference orders toward affordable ones.
SECTION_WALK = [
    ("imaging", "hidden"),
    ("consult", "hidden"),
    ("imaging", "shown"),
    ("consult", "shown"),
    ("labs", "hidden"),
    ("labs", "shown"),
    ("labs", "hidden"),
    ("labs", "shown"),
]

#: Every FETCH_PAYLOAD transmission dies, retries included: the transport
#: exhausts its budget on each one and tells the client.
KILL_FETCHES = dict(seed=4, drop_rate=0.999999, kinds=(MessageKind.FETCH_PAYLOAD,))


def tuned_doc(tuned=True):
    doc = build_sample_medical_record()
    if tuned:
        install_bandwidth_tuning(doc)
    return doc


def walk(store, doc, plan):
    # The buffer is smaller than the ECG trace (96 KiB): revisited
    # sections genuinely re-fetch.
    return run_prefetch_session(
        store, doc, SECTION_WALK, policy=POLICY_NONE, buffer_bytes=64_000,
        bandwidth_bps=2_000_000, think_time_s=4.0, seed=1, plan=plan,
    )


class TestDegradation:
    def test_overlong_waits_step_tuning_down(self, store):
        # The overlong wait is the transport's own: a fetch outlives its
        # retry budget. The session steps itself down, and every
        # component still ends rendered (placeholders, not hangs).
        report = walk(store, tuned_doc(), FaultPlan(**KILL_FETCHES))
        assert report.tuning_level in (BANDWIDTH_MEDIUM, BANDWIDTH_LOW)
        assert report.fully_rendered

    def test_untuned_document_never_degrades(self, store):
        report = walk(store, tuned_doc(tuned=False), FaultPlan(**KILL_FETCHES))
        assert report.tuning_level is None
        assert report.fully_rendered
