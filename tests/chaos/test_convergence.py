"""The acceptance gate: chaos runs converge byte-identically to control.

CI runs the whole matrix as ``python -m repro.chaos.convergence
--scenario all --quick``; here every row of :data:`SCENARIOS` runs once
in quick mode, and the named tests below spot-check what each row
additionally proves, the report shape and the CLI exit codes.
"""

import pytest

from repro.chaos.convergence import SCENARIOS, Fault, main, run_convergence


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_converges(tmp_path, name):
    report = run_convergence(str(tmp_path), name, quick=True)
    assert report["ok"], report
    row = SCENARIOS[name]
    assert tuple(report["seeds"]) == row.seeds
    for entry in report["seeds"].values():
        assert entry["failovers"] == (Fault.SHARD_CRASH in row.faults)
        assert entry["gateway_failovers"] == (Fault.GATEWAY_CRASH in row.faults)


def test_two_seeds_converge_to_control(tmp_path):
    report = run_convergence(str(tmp_path), "baseline", seeds=(1, 2), quick=True)
    assert report["ok"], report
    for seed in (1, 2):
        entry = report["seeds"][seed]
        assert entry["converged"]
        assert entry["errors"] == []
        assert entry["delivery_failures"] == []
        # Chaos must demonstrably have been on, and repaired.
        assert sum(entry["injected"].values()) > 0
        assert entry["retries"] > 0
        # The primary crash forced exactly one failover.
        assert entry["failovers"] == 1
        assert entry["victim"] is not None
    # The control itself finished a full conference without errors.
    assert report["control"]["errors"] == []
    assert report["control"]["displayed"]


def test_subscription_churn_still_converges(tmp_path):
    """Interest churn racing the fault windows must not break convergence.

    CP-net seeding plus subscribe/unsubscribe frames dropped, duplicated
    and reordered across the partition and the primary crash: the final
    replace-all re-subscribe's catch-up heals every divergence, so the
    seeded run still ends byte-identical to its (equally churning)
    fault-free control.
    """
    report = run_convergence(str(tmp_path), "interest-churn", seeds=(1,), quick=True)
    assert report["ok"], report
    entry = report["seeds"][1]
    assert entry["converged"]
    assert entry["delivery_failures"] == []
    assert sum(entry["injected"].values()) > 0
    assert entry["failovers"] == 1


def test_traced_chaos_run_converges_to_untraced_control(tmp_path):
    """Trace trailers must be invisible to the data plane.

    The seeded chaos run traces every delivery (stamped frames, spans,
    histograms) while the control stays untraced: byte-identical final
    displays prove tracing changes no decode result, no ordering and no
    retry outcome — it only appends validated trailers the receivers
    skip.
    """
    report = run_convergence(str(tmp_path), "tracing", seeds=(2,), quick=True)
    assert report["ok"], report
    entry = report["seeds"][2]
    assert entry["converged"]
    assert entry["errors"] == []
    assert entry["delivery_failures"] == []
    assert sum(entry["injected"].values()) > 0
    assert entry["retries"] > 0


def test_compiled_hot_path_converges_to_interpreted_control(tmp_path):
    """The compiled CP-net engine is byte-identical under faults.

    The control runs every completion on the interpreted reference sweep;
    the seeded chaos run keeps compiled evaluation and its completion
    memos on, through the fault window and the primary crash.
    Byte-identical final displays prove compilation and cache sharing
    change no presentation decision — and the gate additionally requires
    cache *hits*, so sharing demonstrably happened (not just agreed).
    """
    report = run_convergence(str(tmp_path), "cpnet-compiled", seeds=(1,), quick=True)
    assert report["ok"], report
    entry = report["seeds"][1]
    assert entry["converged"]
    assert entry["errors"] == []
    assert entry["delivery_failures"] == []
    assert entry["completion_cache_hits"] > 0
    assert sum(entry["injected"].values()) > 0
    assert entry["failovers"] == 1


def test_frames_that_died_with_the_crashed_shard_are_expected(tmp_path):
    """Regression: full-size plan seed 1 through two gateways.

    Two REPLICATE frames are still in flight to the shard victim when it
    fail-stops. The run ends byte-identical to control — failover's
    replica re-bootstrap healed them — so they are expected failures,
    not residual ones, whether or not a gateway crashed too.
    """
    report = run_convergence(str(tmp_path), "baseline", seeds=(1,))
    assert report["ok"], report
    entry = report["seeds"][1]
    assert entry["delivery_failures"] == []
    died_with_victim = entry["expected_delivery_failures"]
    assert len(died_with_victim) == 2
    for failure in died_with_victim:
        assert failure["recipient"] == entry["victim"]
        assert failure["kind"] == "replicate"
        assert failure["reason"] == "recipient_detached"


@pytest.mark.parametrize(
    "scenario, seed", [("gateway-crash", 4), ("megaconf-gateway-crash", 14)]
)
def test_a_read_queued_in_the_crashed_gateway_still_renders(tmp_path, scenario, seed):
    """Regression: full size, these deals crash a gateway while it holds
    a viewer's payload read (``cv-0-0``'s in the conference, ``a-5``'s
    in the crowd). The displayed values converged all the same, but the
    read was lost and the viewer never rendered the component, until
    the failover replayed the client's reads in flight."""
    report = run_convergence(str(tmp_path), scenario, seeds=(seed,))
    assert report["ok"], report
    entry = report["seeds"][seed]
    assert entry["gateway_failovers"] == 1
    assert entry["unfinished"] == {}
    assert report["control"]["unfinished"] == {}


def test_cli_reports_success(tmp_path, capsys):
    status = main(["--seeds", "3", "--quick", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert status == 0
    assert "seed 3: ok" in out
    assert "converged to the control run" in out


def test_cli_runs_every_row(tmp_path, capsys):
    status = main(["--scenario", "all", "--quick", "--seeds", "1", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert status == 0
    assert [line[3:] for line in out.splitlines() if line.startswith("== ")] == list(
        SCENARIOS
    )
