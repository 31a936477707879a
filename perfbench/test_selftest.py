"""Self-test of the benchmark on tiny inputs; takes seconds.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "sdd_bulk": dict(n_tracks=4, n_frames=600, length_range=(250, 400)),
    "sdd_aim_topk": dict(n_tracks=10, n_frames=360, length_range=(60, 120)),
    "ind_pair_sweep": dict(n_tracks=6, n_frames=400, length_range=(80, 200), planted_len=120),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def test_benchmark_json_matches_the_code() -> None:
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == layers.layer_metrics()
    for name in declared:
        assert layers.moves(name)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name: str, trace: int, tmp_path: Path) -> None:
    result, info, _ = run.run_workload(tiny(name), 5, 0.0, bool(trace), tmp_path, None)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= len(run.WORKLOADS[name].timed)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert math.isfinite(emitted["value"]), m["name"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert info["trace"]["max_unaccounted_s"] < 1e-6
        assert metrics[f"cli.{run.WORKLOADS[name].timed[0][0]}_s"] > 0
        timed = {c[0] for c in run.WORKLOADS[name].timed}
        if "ingest" in timed:
            assert metrics["sdd.rows"] + metrics["ind.rows"] == info["inputs"]["rows"]
        if "aim" in timed:
            assert metrics["aim.pairs_measurable"] == info["inputs"]["measurable_pairs"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_restores_the_originals() -> None:
    import trajscope
    from trajscope import aim, cli, mi, types

    before = (cli.extract_interactions, aim.mi_prefix_series, mi.HashMIState.push, types.Trajectory.xy)
    with layers.Tracer():
        assert cli.extract_interactions is aim.extract_interactions
        assert cli.extract_interactions is not before[0]
        assert trajscope.extract_interactions is cli.extract_interactions
        assert mi.HashMIState.push is not before[2]
    after = (cli.extract_interactions, aim.mi_prefix_series, mi.HashMIState.push, types.Trajectory.xy)
    assert after == before


def test_output_check_detects_tampering(tmp_path: Path) -> None:
    w = tiny("sdd_bulk")
    run.make_inputs(w, 5, tmp_path)
    out = tmp_path / "out"
    for command in w.timed[:2]:
        assert run.run_child(command, tmp_path / "run.yaml", out, tmp_path / "log").ok
    check = run.OutputCheck(w, None)
    assert check(("ingest",), run.tree_digests(out))
    assert check(("stats",), run.tree_digests(out))

    with open(out / "reports" / "lost_stats.csv", "a") as fh:
        fh.write("x")
    assert not check(("stats",), run.tree_digests(out))
    assert "reports/lost_stats.csv" in check.problems[-1]

    golden = run.OutputCheck(w, run.tree_digests(out))
    (out / "store" / "manifest.json").unlink()
    assert not golden(("ingest",), run.tree_digests(out))
    assert "store/manifest.json" in golden.problems[-1]


def test_inputs_follow_the_seed(tmp_path: Path) -> None:
    w = tiny("ind_pair_sweep")
    facts = [run.make_inputs(w, seed, tmp_path / str(i)) for i, seed in enumerate((5, 5, 6))]
    trees = [run.tree_digests(tmp_path / str(i) / "inputs") for i in range(3)]
    assert trees[0] == trees[1] and facts[0] == facts[1]
    assert trees[0] != trees[2]


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sdd_bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
