"""Convergence harness: chaos runs must end where the control run ends.

The strongest claim the reliability layer makes is not "fewer errors" —
it is *exactly-once, in-order delivery*, and the observable consequence
is that a conference driven under loss, duplication, reordering, a
partition window and a primary crash finishes with every client
displaying **byte-for-byte** the state of the fault-free control run.

:data:`SCENARIOS` is the chaos matrix: one frozen :class:`ChaosScenario`
row per acceptance scenario, naming its workload runner, the faults it
injects and the plan seeds it must survive. :func:`run_convergence` runs
one row — the control once and the seeded runs, each in its own isolated
metrics registry/event log — and compares.
``python -m repro.chaos.convergence --scenario all --quick`` is the CI
entry point: exit status 1 on any divergence in any row.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import obs
from repro.chaos.plan import FaultPlan
from repro.cpnet.compiled import interpreted_mode
from repro.db.engine import Database
from repro.db.orm import MultimediaObjectStore
from repro.workloads.chaos import run_chaos_conference
from repro.workloads.megaconf import run_megaconf_convergence

#: Fault rates of the acceptance scenario: lossy enough that repair
#: mechanisms demonstrably fire, survivable within the retry budget.
DEFAULT_RATES = {
    "drop_rate": 0.06,
    "dup_rate": 0.05,
    "reorder_rate": 0.08,
    "corrupt_rate": 0.02,
}


class Fault(enum.Flag):
    """What a scenario injects on top of the seeded per-frame rates.

    Crashes and churn happen in the control run too (the op_seq stamps
    must match byte for byte); the partition window rides on the fault
    plan, so only seeded runs have one.
    """

    PARTITION = enum.auto()
    SHARD_CRASH = enum.auto()
    GATEWAY_CRASH = enum.auto()
    INTEREST_CHURN = enum.auto()


def _conference(
    store: MultimediaObjectStore, plan: FaultPlan | None, quick: bool, faults: Fault
) -> dict[str, Any]:
    """The three-phase conference of :mod:`repro.workloads.chaos`."""
    return run_chaos_conference(
        store,
        plan=plan,
        events_per_room=3 if quick else 6,
        crash_owner_of="case-0" if Fault.SHARD_CRASH in faults else None,
        partition=Fault.PARTITION in faults and plan is not None,
        interest_churn=Fault.INTEREST_CHURN in faults,
        gateway_crash=Fault.GATEWAY_CRASH in faults,
    )


def _megaconf(
    store: MultimediaObjectStore, plan: FaultPlan | None, quick: bool, faults: Fault
) -> dict[str, Any]:
    """The keynote flash crowd of :mod:`repro.workloads.megaconf`.

    Admission control is on, JOIN deferral engages during the keynote
    wave and the (built-in) partition window lands over it — overload
    shedding and chaos repair must *compose* without breaking
    byte-identity.
    """
    return run_megaconf_convergence(
        store, plan=plan, quick=quick, gateway_crash=Fault.GATEWAY_CRASH in faults
    )


@dataclass(frozen=True)
class ChaosScenario:
    """One row of the chaos matrix."""

    name: str
    #: ``runner(store, plan, quick, faults)`` -> the run's result dict.
    runner: Callable[..., dict[str, Any]]
    faults: Fault
    #: Plan seeds the scenario is gated on.
    seeds: tuple[int, ...]
    #: Trace every delivery of the seeded runs while the control stays
    #: untraced: convergence then also proves trace trailers are
    #: invisible to the data plane.
    traced: bool = False
    #: Run the control on the interpreted CP-net engine while the seeded
    #: runs keep compiled evaluation and the shared completion cache:
    #: convergence then also proves the compiled hot path byte-identical,
    #: and each seed must register cache hits so sharing really happened.
    interpreted_control: bool = False


_CRASH = Fault.PARTITION | Fault.SHARD_CRASH
_GW_CRASH = Fault.PARTITION | Fault.GATEWAY_CRASH

#: The chaos matrix, by row name. CI and the tests iterate it.
SCENARIOS: dict[str, ChaosScenario] = {
    row.name: row
    for row in (
        ChaosScenario("baseline", _conference, _CRASH, (1, 2, 3, 4, 5)),
        ChaosScenario(
            "interest-churn", _conference, _CRASH | Fault.INTEREST_CHURN, (1, 2, 3)
        ),
        ChaosScenario("tracing", _conference, _CRASH, (1, 2), traced=True),
        ChaosScenario("gateway-crash", _conference, _GW_CRASH, (1, 2)),
        ChaosScenario("megaconf", _megaconf, Fault.PARTITION, (1, 2)),
        ChaosScenario("megaconf-gateway-crash", _megaconf, _GW_CRASH, (1, 2)),
        ChaosScenario(
            "cpnet-compiled", _conference, _CRASH, (1, 2), interpreted_control=True
        ),
    )
}


def _one_run(
    root: str, name: str, row: ChaosScenario, plan: FaultPlan | None, quick: bool
) -> dict[str, Any]:
    """One isolated conference run (fresh obs context, fresh database)."""
    seeded = plan is not None
    tracer = (
        obs.use_dtrace(obs.DeliveryTracer(sample_every=1))
        if row.traced and seeded
        else nullcontext()
    )
    engine_mode = (
        interpreted_mode() if row.interpreted_control and not seeded else nullcontext()
    )
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        db = Database(f"{root}/{row.name}-{name}")
        try:
            with tracer, engine_mode:
                result = row.runner(MultimediaObjectStore(db), plan, quick, row.faults)
        finally:
            db.close()
        counters = registry.snapshot()["counters"]
    result["counters"] = {
        key: value
        for key, value in counters.items()
        if key.startswith(("net.", "chaos.", "gateway.route", "cpnet."))
    }
    result.pop("harness", None)
    return result


def run_convergence(
    root: str,
    scenario: str = "baseline",
    seeds: Iterable[int] | None = None,
    quick: bool = False,
) -> dict[str, Any]:
    """Control + one chaos run per seed of one scenario; report agreement.

    *root* is a scratch directory for the runs' databases, *scenario* a
    row name of :data:`SCENARIOS`, *seeds* an override of the row's own
    seeds. ``quick`` trims the workload (fewer events) for CI smoke
    jobs. The returned report has ``converged`` per seed plus the overall
    ``ok`` verdict: every seed byte-identical to control, zero
    client-visible errors, zero delivery failures, and — to prove chaos
    was actually on — at least one injected fault and one retransmission
    per seed.
    """
    row = SCENARIOS[scenario]
    control = _one_run(root, "control", row, None, quick)
    report: dict[str, Any] = {
        "scenario": row.name,
        "control": {
            "displayed": control["displayed"],
            "errors": control["errors"],
            "sim_seconds": control["sim_seconds"],
        },
        "seeds": {},
    }
    ok = not control["errors"]
    for seed in row.seeds if seeds is None else seeds:
        plan = FaultPlan(seed=seed, **DEFAULT_RATES)
        result = _one_run(root, f"seed-{seed}", row, plan, quick)
        retries = sum(
            value
            for key, value in result["counters"].items()
            if key.startswith("net.retries")
        )
        injected = sum(result["injected"].values())
        converged = result["displayed"] == control["displayed"]
        cache_hits = int(
            result["counters"].get("cpnet.completion_cache.hits", 0)
        )
        seed_ok = (
            converged
            and not result["errors"]
            and not result["delivery_failures"]
            and injected > 0
            and retries > 0
            # Compiled mode must prove the cache actually shared work,
            # not just that the compiled sweep happened to agree.
            and (not row.interpreted_control or cache_hits > 0)
        )
        ok = ok and seed_ok
        report["seeds"][seed] = {
            "ok": seed_ok,
            "converged": converged,
            "completion_cache_hits": cache_hits,
            "errors": result["errors"],
            "delivery_failures": result["delivery_failures"],
            "injected": result["injected"],
            "retries": retries,
            "failovers": len(result["failovers"]),
            "gateway_failovers": len(result["gateway_failovers"]),
            "expected_delivery_failures": result["expected_delivery_failures"],
            "victim": result["victim"],
            "gateway_victim": result["gateway_victim"],
            "sim_seconds": result["sim_seconds"],
        }
    report["ok"] = ok
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos convergence suite: seeded runs vs fault-free control."
    )
    parser.add_argument(
        "--scenario",
        default="baseline",
        choices=[*SCENARIOS, "all"],
        help="one row of the chaos matrix, or every row in turn",
    )
    parser.add_argument("--quick", action="store_true", help="trimmed CI workload")
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="plan seeds (default: each scenario's own)",
    )
    parser.add_argument("--root", default=None, help="scratch dir (default: mkdtemp)")
    args = parser.parse_args(argv)
    root = args.root or tempfile.mkdtemp(prefix="chaos-convergence-")
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    status = 0
    for name in names:
        report = run_convergence(root, name, seeds=args.seeds, quick=args.quick)
        print(f"== {name}")
        for seed, entry in report["seeds"].items():
            verdict = "ok" if entry["ok"] else "DIVERGED"
            print(
                f"seed {seed}: {verdict}  injected={sum(entry['injected'].values())} "
                f"retries={entry['retries']} failovers={entry['failovers']} "
                f"gateway_failovers={entry['gateway_failovers']} "
                f"errors={len(entry['errors'])} "
                f"delivery_failures={len(entry['delivery_failures'])}"
            )
        if report["ok"]:
            print(f"all {len(report['seeds'])} seeds converged to the control run")
        else:
            print(json.dumps(report, indent=2, default=str), file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
