"""Smoke tests for the conference ledger (``REPRO_BENCH_QUICK=1 pytest benchmarks``).

Each workload runs once at a tenth of its size, traced and untraced, in
this process; the resulting row is validated against ``BENCHMARK.json``
and the tracer is checked for hygiene: everything it wrapped is put back,
and an untraced rep runs with nothing wrapped at all.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import rep as rep_module  # noqa: E402
import run as run_module  # noqa: E402
from tracer import Tracer  # noqa: E402

CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_SCALE = 0.1


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    """One row per workload from a default, a traced and a null rep."""
    out = {}
    for name in layers.WORKLOAD_NAMES:
        reps = {
            mode: [
                rep_module.run_rep(
                    name, 17, str(tmp_path_factory.mktemp(f"{name}-{mode}")),
                    mode, SMOKE_SCALE,
                )
            ]
            for mode in rep_module.MODES
        }
        out[name] = (ledger.workload_row(name, reps), reps)
    return out


def test_contract_matches_the_layer_table():
    assert CONTRACT == layers.benchmark_contract(CONTRACT["run_seconds"])
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )
    for workload in CONTRACT["workloads"]:
        assert NAME.fullmatch(workload["name"]) and len(workload["why"]) <= 200


def test_every_layer_says_what_it_should_move():
    for layer in layers.LAYERS:
        assert layer.moves or layer.note.startswith("none"), layer.name
        for metric, workloads in layer.moves:
            assert metric in layers.END_TO_END_BY_NAME, (layer.name, metric)
            assert workloads and set(workloads) <= set(layers.WORKLOAD_NAMES)
            on = layers.END_TO_END_BY_NAME[metric].on
            assert set(workloads) <= set(on), (layer.name, metric, workloads)


def test_rows_hold_the_contract_metrics(rows):
    gated = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for name, (row, reps) in rows.items():
        assert row["failed"] == 0, row["violations"]
        assert row["end_to_end"]["failed_op_share"]["value"] == 0
        for metric, entry in row["end_to_end"].items():
            assert name in layers.END_TO_END_BY_NAME[metric].on
            assert entry["value"] != 0 or metric == "failed_op_share", (name, metric)
        outcome = reps["default"][0]["outcome"]
        pipeline = run_module.gated_metrics(row, outcome)
        assert set(pipeline) == gated
        # The pipeline forbids a gated metric that can read 0.
        assert all(entry["value"] > 0 for entry in pipeline.values()), (name, pipeline)
        assert set(run_module.layer_metrics(row, outcome)) == per_layer
        assert set(row["per_layer"]) <= per_layer


def test_traced_self_times_add_up_and_bypasses_bypass(rows):
    for name, (row, _) in rows.items():
        per = row["per_layer"]
        # >= 98% at full size; at a tenth, chaos_repair's window is mostly
        # run_chaos_conference's own (unspanned) set-up and sits near 97%.
        assert 0.95 <= per["trace.attributed_share"]["value"] <= 1.0
        shares = sum(
            per[f"{layer.name}.self_share"]["value"] for layer in layers.SPANNED
        )
        assert shares == pytest.approx(1.0)
        for layer, only_on in (
            ("net.reliable", "chaos_repair"),
            ("cluster.admission", "megaconf_day"),
        ):
            busy = per[f"{layer}.self_s"]["value"] > 0
            assert busy == (name == only_on), (name, layer)
        filters = per["interest.filtered_share"]["value"] > 0
        assert filters == (name == "edit_storm"), name


def test_compare_flags_a_regression_and_passes_a_copy(rows):
    row = {"seed": 17, "workloads": {name: part for name, (part, _) in rows.items()}}
    lines, regressed = compare.compare(row, row)
    assert regressed == 0 and not any("unresolved" in line for line in lines)
    worse = json.loads(json.dumps(row))
    slow = worse["workloads"]["edit_storm"]["end_to_end"]["ops_per_wall_s"]
    slow["value"] *= 0.5
    bytes_up = worse["workloads"]["megaconf_day"]["end_to_end"]["wire_bytes_per_op"]
    bytes_up["value"] *= 1.02
    # A metric or a workload that is no longer reported is no pass either.
    del worse["workloads"]["cluster_rooms"]["end_to_end"]["events_per_sim_s"]
    del worse["workloads"]["chaos_repair"]
    lines, regressed = compare.compare(row, worse)
    assert regressed == 4
    assert sum("regressed" in line for line in lines) == 4


def test_compare_refuses_rows_of_different_rep_counts(rows, tmp_path, capsys):
    row = {"seed": 17, "workloads": {name: part for name, (part, _) in rows.items()}}
    for reps in (7, 12):
        (tmp_path / f"{reps}.json").write_text(json.dumps({**row, "reps": reps}))
    assert compare.main([str(tmp_path / "7.json"), str(tmp_path / "12.json")]) == 2
    assert "different --reps" in capsys.readouterr().err
    assert compare.main([str(tmp_path / "7.json"), str(tmp_path / "7.json")]) == 0


def test_a_violation_in_any_mode_fails_the_row(rows):
    _, reps = rows["cluster_rooms"]
    broken = json.loads(json.dumps(reps))
    broken["traced"][0]["outcome"]["violations"].append("viewer-0-0: error boom")
    row = ledger.workload_row("cluster_rooms", broken)
    assert row["failed"] == 1 and row["violations"] == ["viewer-0-0: error boom"]


def test_overheads_compare_equal_rep_counts(rows):
    """Best-of-by-segment falls as n rises: extra untraced reps (later
    rounds of a ledger run) must not enter the traced/null comparison."""
    _, reps = rows["edit_storm"]
    per = ledger.workload_row("edit_storm", reps)["per_layer"]
    fast = json.loads(json.dumps(reps["default"][0]))
    fast["outcome"]["segments_s"] = [t / 2 for t in fast["outcome"]["segments_s"]]
    more = {**reps, "default": reps["default"] + [fast]}
    per_more = ledger.workload_row("edit_storm", more)["per_layer"]
    for name in ("trace.overhead_share", "obs.overhead_share"):
        assert per_more[name]["value"] == per[name]["value"]


def test_nondeterministic_reps_never_make_a_row(rows):
    _, reps = rows["cluster_rooms"]
    twin = json.loads(json.dumps(reps["default"][0]))
    twin["outcome"]["wire_bytes"] += 1
    with pytest.raises(ledger.LedgerError, match="cluster_rooms: wire_bytes"):
        ledger.workload_row("cluster_rooms", {"default": [reps["default"][0], twin]})


def _bindings():
    """(owner, attribute) -> object for every binding the tracer may touch."""
    seen = {}
    for layer in layers.SPANNED:
        for module_name, class_name, names in layer.boundary:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is not None:
                    cls = getattr(module, class_name)
                    seen[(cls, name)] = cls.__dict__[name]
                    continue
                original = getattr(module, name)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not None and mod_name.split(".")[0] == "repro":
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                seen[(mod, attr)] = value
    clock = importlib.import_module("repro.net.simclock").SimClock
    seen[(clock, "schedule")] = clock.__dict__["schedule"]
    return seen


def test_tracer_restores_every_binding(rows, tmp_path):
    import workloads  # noqa: F401  (loads every repro module a run uses)

    before = _bindings()
    assert not any(hasattr(obj, "__wrapped__") for obj in before.values()), (
        "an untraced run must start with zero wrappers installed"
    )
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = _bindings_now(before)
        assert all(hasattr(obj, "__wrapped__") for obj in wrapped.values())
        assert {(owner, attr) for owner, attr, _ in tracer.installed} == set(before)
    finally:
        tracer.uninstall()
    after = _bindings_now(before)
    assert all(after[key] is before[key] for key in before)
    assert tracer.installed == []
    # And a whole untraced rep leaves nothing wrapped behind it either.
    rep_module.run_rep("edit_storm", 17, str(tmp_path), "default", SMOKE_SCALE)
    assert all(_bindings_now(before)[key] is before[key] for key in before)


def _bindings_now(keys):
    return {(owner, attr): owner.__dict__[attr] for owner, attr in keys}
