"""Synthetic workloads for examples, tests and benchmarks.

* :mod:`repro.workloads.records` — generated medical-record documents of
  controlled size/shape (the corpus behind the database and room
  benchmarks);
* :mod:`repro.workloads.sessions` — scripted viewer behaviour: sequences
  of presentation choices that are mostly preference-plausible with a
  controllable fraction of surprises (what the prefetch study replays);
* :mod:`repro.workloads.cluster` — many concurrent consultations driven
  through a sharded cluster (the scale-out benchmark's scenario);
* :mod:`repro.workloads.chaos` — the three-phase conference the chaos
  convergence suite replays under seeded fault plans;
* :mod:`repro.workloads.interest` — deterministic sparse "who watches
  what" subscription shapes (the interest-management scenario);
* :mod:`repro.workloads.megaconf` — a schedule-driven mega-conference
  day: parallel tracks, session-boundary migration and a keynote flash
  crowd (the admission-control benchmark's overload scenario);
* :mod:`repro.workloads.prefetch` — one viewer's consultation on the live
  client under a §4.4 prefetch policy (E7's study).
"""

from repro.workloads.chaos import run_chaos_conference
from repro.workloads.cluster import run_cluster_conference
from repro.workloads.interest import primitive_paths, sparse_subscriptions
from repro.workloads.megaconf import (
    ConferenceSchedule,
    SessionSlot,
    build_conference_schedule,
    run_megaconf,
    run_megaconf_convergence,
)
from repro.workloads.prefetch import (
    POLICIES,
    POLICY_CPNET,
    POLICY_NONE,
    POLICY_RANDOM,
    PrefetchReport,
    run_prefetch_session,
)
from repro.workloads.records import generate_record
from repro.workloads.sessions import consultation_events

__all__ = [
    "POLICIES",
    "POLICY_CPNET",
    "POLICY_NONE",
    "POLICY_RANDOM",
    "ConferenceSchedule",
    "SessionSlot",
    "build_conference_schedule",
    "consultation_events",
    "generate_record",
    "PrefetchReport",
    "primitive_paths",
    "run_chaos_conference",
    "run_cluster_conference",
    "run_megaconf",
    "run_megaconf_convergence",
    "run_prefetch_session",
    "sparse_subscriptions",
]
