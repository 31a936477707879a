"""Release gates: one test per gate, checked at its stated tolerance.

Gates 1 and 2 compare the stats pipeline against frozen reference
statistics for the public dataset releases and therefore need the real
data on disk. Point TRAJSCOPE_SDD_DIR at the directory containing the
SDD scene folders (each holding videoN/annotations.txt) and
TRAJSCOPE_IND_DIR at the inD data directory (the *_tracks.csv files and
their companions) to enable them; they are skipped otherwise. All other
gates run on synthetic fixtures and frozen constants.

Run `pytest tests/test_acceptance.py -v` for one verdict line per gate;
add `-s` to also see the printed `criterion N (...): PASS|FAIL` lines.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_traj, straight_line
from test_cli import write_config, write_sdd_tree
from trajscope.aim import (
    InteractionPair,
    Kinematics,
    RhoConfig,
    accumulate_aim,
    compute_rho,
    extract_interactions,
)
from trajscope.analytics import overlap_report
from trajscope.cli import main as cli_main
from trajscope.evaluation import ade, constant_velocity_predict, evaluate, fde
from trajscope.mi import HashMIState, g_divergence, mi_prefix_series
from trajscope.preprocess import (
    LostPolicy,
    PreprocessConfig,
    classify_lost_positions,
    filter_lost,
    preprocess_trajectory,
    resample,
    window,
)
from trajscope.registry import load_registry

SDD_ENV = "TRAJSCOPE_SDD_DIR"
IND_ENV = "TRAJSCOPE_IND_DIR"

# 99th percentile of the dependence estimate over 100 seeded runs of
# 10,000 independent uniform [0, 1000] pairs; frozen from
# scripts/mi_threshold_oracle.py (base seed 20260814).
TAU_IND = 0.13314032480931756

# Frozen reference statistics for the released SDD annotations:
# scene -> (trajectory count, % lost at start, % in middle, % at end).
REFERENCE_LOST_STATS = {
    "bookstore": (1645, 78.1, 7.4, 65.2),
    "coupa": (425, 74.4, 5.6, 69.2),
    "deathcircle": (2830, 69.3, 8.1, 53.8),
    "gates": (1249, 68.9, 10.6, 54.8),
    "hyang": (1980, 68.7, 9.9, 56.2),
    "little": (656, 90.9, 5.8, 84.0),
    "nexus": (1456, 68.1, 7.6, 46.8),
    "quad": (59, 25.4, 13.6, 16.9),
}
# The two scenes whose trajectory counts must match exactly.
EXACT_COUNT_SCENES = ("coupa", "quad")

# Frozen reference class percentages per SDD scene (tolerance ±3 points;
# the reference uses a counting convention that is not fully specified).
REFERENCE_SDD_CLASS_PCT = {
    "bookstore": {"Pedestrian": 63.9, "Biker": 32.9, "Car": 0.83, "Bus": 0.37, "Skater": 1.63, "Cart": 0.34},
    "coupa": {"Pedestrian": 80.6, "Biker": 18.9, "Car": 0.17, "Bus": 0.0, "Skater": 0.17, "Cart": 0.17},
    "deathcircle": {"Pedestrian": 33.1, "Biker": 56.3, "Car": 4.71, "Bus": 0.42, "Skater": 2.33, "Cart": 3.1},
    "gates": {"Pedestrian": 43.3, "Biker": 51.9, "Car": 1.08, "Bus": 0.78, "Skater": 2.55, "Cart": 0.29},
    "hyang": {"Pedestrian": 70.0, "Biker": 27.7, "Car": 0.5, "Bus": 0.09, "Skater": 1.29, "Cart": 0.43},
    "little": {"Pedestrian": 42.5, "Biker": 56.0, "Car": 0.17, "Bus": 0.67, "Skater": 0.67, "Cart": 0.0},
    "nexus": {"Pedestrian": 64.0, "Biker": 4.22, "Car": 29.5, "Bus": 1.25, "Skater": 0.6, "Cart": 0.4},
    "quad": {"Pedestrian": 87.5, "Biker": 12.5, "Car": 0.0, "Bus": 0.0, "Skater": 0.0, "Cart": 0.0},
}

# Frozen reference class percentages per inD intersection group (±1 point).
REFERENCE_IND_CLASS_PCT = {
    "0-6": {"Pedestrian": 6.95, "Biker": 3.66, "Car": 79.9, "TruckBus": 9.5},
    "7-17": {"Pedestrian": 21.4, "Biker": 11.6, "Car": 65.4, "TruckBus": 1.58},
    "18-29": {"Pedestrian": 33.7, "Biker": 27.3, "Car": 38.8, "TruckBus": 0.26},
    "30-32": {"Pedestrian": 3.44, "Biker": 3.05, "Car": 88.9, "TruckBus": 4.61},
}

# Frozen reference recording split for inD (exact, curated).
REFERENCE_IND_SPLIT = {
    "train": (0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 18, 19, 20, 21, 22, 23, 24, 25, 30),
    "val": (5, 14, 15, 26, 27, 31),
    "test": (6, 16, 17, 28, 29, 32),
}

# Frozen reference overlap metadata per SDD scene (exact, curated):
# scene -> (location overlap, time overlap, simultaneous video groups).
REFERENCE_OVERLAP = {
    "bookstore": ("partial", "partial", ((1, 2, 3, 4, 5, 6),)),
    "coupa": ("partial", "full", ((1, 2, 3, 4),)),
    "deathcircle": ("full", "none", ()),
    "gates": ("partial", "partial", ((0, 1, 2), (4, 5, 6, 7), (5, 6))),
    "hyang": ("partial", "partial", ((6, 10, 11, 12, 13, 14), (7, 8, 9), (2, 3))),
    "little": ("partial", "partial", ((1, 2, 3),)),
    "nexus": ("partial", "partial", ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))),
    "quad": ("partial", "full", ((0, 1, 2, 3),)),
}


class _Gate:
    """Collects soft failures so each gate ends in exactly one verdict."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _verdict(num: int, name: str, gate: _Gate) -> None:
    status = "FAIL" if gate.failures else "PASS"
    print(f"criterion {num} ({name}): {status}")
    detail = "\n".join(f"- {f}" for f in gate.failures)
    assert not gate.failures, f"criterion {num} ({name}) failed:\n{detail}"


def _run_cli(argv: list) -> None:
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command {argv[0]!r} exited with {code}"


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _dataset_config(path: Path, dataset: str, data_dir: Path, out: Path) -> Path:
    lines = [
        f"dataset: {dataset}",
        f"inputs: [{json.dumps(str(data_dir))}]",
        f"out: {json.dumps(str(out))}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def _require_dir(env_name: str) -> Path:
    value = os.environ.get(env_name)
    if not value:
        pytest.skip(f"set {env_name} to the dataset directory to run this gate")
    path = Path(value)
    if not path.is_dir():
        pytest.skip(f"{env_name}={value!r} is not a directory")
    return path


# --- gate 1: lost-annotation statistics on the real SDD ------------------------------


def test_criterion_1_sdd_lost_annotation_stats(tmp_path) -> None:
    data = _require_dir(SDD_ENV)
    out = tmp_path / "out"
    config = _dataset_config(tmp_path / "sdd.yaml", "sdd", data, out)
    _run_cli(["ingest", "--config", config])
    started = time.perf_counter()
    _run_cli(["stats", "--config", config])
    elapsed = time.perf_counter() - started

    rows = {r["scene"]: r for r in _read_csv(out / "reports" / "lost_stats.csv")}
    gate = _Gate()
    gate.check(elapsed < 120.0, f"stats took {elapsed:.1f}s, budget is 120s")
    for scene, (count, at_start, in_middle, at_end) in REFERENCE_LOST_STATS.items():
        row = rows.get(scene)
        if row is None:
            gate.check(False, f"scene {scene!r} missing from lost_stats.csv")
            continue
        if scene in EXACT_COUNT_SCENES:
            gate.check(
                int(row["n_trajectories"]) == count,
                f"{scene}: {row['n_trajectories']} trajectories, reference says {count}",
            )
        for column, want in (
            ("pct_lost_start", at_start),
            ("pct_lost_middle", in_middle),
            ("pct_lost_end", at_end),
        ):
            got = float(row[column])
            gate.check(
                abs(got - want) <= 1.0,
                f"{scene} {column}: {got} vs reference {want} (tolerance 1.0)",
            )
    _verdict(1, "SDD lost-annotation stats", gate)


# --- gate 2: class distributions ------------------------------------------------------


def test_criterion_2_class_distribution(tmp_path) -> None:
    ind_value = os.environ.get(IND_ENV)
    sdd_value = os.environ.get(SDD_ENV)
    if not ind_value and not sdd_value:
        pytest.skip(f"set {IND_ENV} and/or {SDD_ENV} to run this gate")

    gate = _Gate()
    sides = []

    def check_side(dataset: str, data_dir: Path, reference: dict, tolerance: float) -> None:
        out = tmp_path / dataset / "out"
        config = _dataset_config(tmp_path / f"{dataset}.yaml", dataset, data_dir, out)
        _run_cli(["ingest", "--config", config])
        _run_cli(["stats", "--config", config])
        rows = {r["scene"]: r for r in _read_csv(out / "reports" / "class_distribution.csv")}
        for group, wanted in reference.items():
            row = rows.get(group)
            if row is None:
                gate.check(False, f"{dataset} group {group!r} missing from class_distribution.csv")
                continue
            for cls, want in wanted.items():
                got = float(row[cls])
                gate.check(
                    abs(got - want) <= tolerance,
                    f"{dataset} {group} {cls}: {got} vs reference {want} (tolerance {tolerance})",
                )
        sides.append(f"{dataset} ±{tolerance:g}")

    if ind_value:
        check_side("ind", Path(ind_value), REFERENCE_IND_CLASS_PCT, 1.0)
    if sdd_value:
        check_side("sdd", Path(sdd_value), REFERENCE_SDD_CLASS_PCT, 3.0)
    _verdict(2, "class distribution: " + ", ".join(sides), gate)


# --- gate 3: registry fidelity --------------------------------------------------------


def test_criterion_3_registry_fidelity() -> None:
    gate = _Gate()
    registry = load_registry()

    rows = {row.scene: row for row in overlap_report(registry)}
    gate.check(
        sorted(rows) == sorted(REFERENCE_OVERLAP),
        f"scene set {sorted(rows)} != {sorted(REFERENCE_OVERLAP)}",
    )
    for scene, (location, when, groups) in REFERENCE_OVERLAP.items():
        row = rows.get(scene)
        if row is None:
            continue
        gate.check(
            row.location_overlap == location,
            f"{scene} location overlap {row.location_overlap!r} != {location!r}",
        )
        gate.check(
            row.time_overlap == when,
            f"{scene} time overlap {row.time_overlap!r} != {when!r}",
        )
        gate.check(
            row.simultaneous_groups == groups,
            f"{scene} groups {row.simultaneous_groups!r} != {groups!r}",
        )

    covered = sorted(r for members in REFERENCE_IND_SPLIT.values() for r in members)
    gate.check(covered == list(range(33)), "reference split must cover recordings 0-32 once")
    for part, members in REFERENCE_IND_SPLIT.items():
        for recording in members:
            got = registry.split_of("ind", recording)
            gate.check(got == part, f"recording {recording}: split {got!r} != {part!r}")
    _verdict(3, "registry fidelity", gate)


# --- gate 4: dependence estimator properties ------------------------------------------


def test_criterion_4_mi_estimator_properties() -> None:
    started = time.perf_counter()
    gate = _Gate()

    gate.check(g_divergence(1.0) == 0.0, f"g(1) = {g_divergence(1.0)!r}, want 0.0 exactly")
    gate.check(g_divergence(0.0) == 0.5, f"g(0) = {g_divergence(0.0)!r}, want 0.5 exactly")
    gate.check(g_divergence(3.0) == 0.5, f"g(3) = {g_divergence(3.0)!r}, want 0.5 exactly")

    rng = np.random.default_rng(20260814)
    xs = rng.uniform(0.0, 1000.0, 10_000)
    ys = rng.uniform(0.0, 1000.0, 10_000)
    independent = HashMIState()
    for x, y in zip(xs, ys):
        independent.push(x, y)
    indep = independent.estimate()
    gate.check(indep < TAU_IND, f"independence fixture {indep!r} not below TAU_IND {TAU_IND!r}")

    identity = HashMIState()
    for x in xs:
        identity.push(x, x)
    ident = identity.estimate()
    gate.check(
        ident > 10.0 * TAU_IND,
        f"identity fixture {ident!r} not above 10*TAU_IND {10.0 * TAU_IND!r}",
    )

    # Incremental evaluation must match a fresh batch recount bit-for-bit
    # on 1,000 distinct random prefix lengths of one correlated stream.
    rng = np.random.default_rng(7)
    n = 1010
    xs = rng.uniform(0.0, 500.0, n)
    ys = 0.5 * xs + rng.uniform(0.0, 250.0, n)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    prefixes = np.sort(rng.choice(np.arange(10, n + 1), size=1000, replace=False))
    series = mi_prefix_series(pairs, prefixes.tolist())
    mismatched = []
    for length, incremental in series:
        fresh = HashMIState()
        for x, y in pairs[:length]:
            fresh.push(x, y)
        if fresh.estimate() != incremental:
            mismatched.append(length)
    gate.check(len(series) == 1000, f"expected 1000 prefix evaluations, got {len(series)}")
    gate.check(not mismatched, f"{len(mismatched)} prefixes not bit-exact, first: {mismatched[:5]}")

    elapsed = time.perf_counter() - started
    gate.check(elapsed < 60.0, f"estimator suite took {elapsed:.1f}s, should be seconds")
    _verdict(4, "dependence estimator properties", gate)


# --- gate 5: interaction measure properties -------------------------------------------


def _series_pair(n: int) -> InteractionPair:
    walker = straight_line(n, track_id=1)
    escort = straight_line(n, origin=(0.0, 4.0), track_id=2)
    return extract_interactions([walker, escort], n_window=3)[0]


def test_criterion_5_interaction_measure_properties() -> None:
    gate = _Gate()
    rng = np.random.default_rng(20260814)
    long_pair = _series_pair(10_000)

    # delta = 1: the accumulated measure never decreases (terms are nonnegative)
    non_monotonic = 0
    for _ in range(100):
        m = int(rng.integers(2, 80))
        frames = list(range(m))
        mi_s = list(zip(frames, rng.uniform(0.0, 5.0, m).tolist()))
        rho_s = list(zip(frames, rng.uniform(0.0, 2.0, m).tolist()))
        series = accumulate_aim(long_pair, mi_s, rho_s, delta=1.0)
        if (np.diff(series.aim) < 0.0).any():
            non_monotonic += 1
    gate.check(non_monotonic == 0, f"{non_monotonic}/100 sequences decreased under delta=1")

    # larger delta keeps more history, so it dominates pointwise
    m = 10_000
    frames = list(range(m))
    mi_vals = rng.uniform(0.0, 4.0, m)
    rho_vals = rng.uniform(0.0, 2.0, m)
    mi_s = list(zip(frames, mi_vals.tolist()))
    rho_s = list(zip(frames, rho_vals.tolist()))
    by_delta = {
        delta: accumulate_aim(long_pair, mi_s, rho_s, delta=delta).aim
        for delta in (1.0, 0.98, 0.95)
    }
    gate.check(
        (by_delta[1.0] >= by_delta[0.98]).all() and (by_delta[0.98] >= by_delta[0.95]).all(),
        "delta ordering violated: larger delta must dominate pointwise",
    )

    # the recurrence agrees with the direct weighted sum on a 10^4-frame series
    terms = rho_vals * mi_vals
    recurrence = by_delta[0.98]
    worst = 0.0
    for idx in (0, 1, 9, 99, 999, 4_999, m - 1):
        direct = math.fsum(terms[s] * 0.98 ** (idx - s) for s in range(idx + 1))
        rel = abs(recurrence[idx] - direct) / max(abs(direct), 1e-300)
        worst = max(worst, rel)
    gate.check(worst <= 1e-9, f"recurrence vs direct sum: worst relative error {worst!r}")

    # boundary behavior of the physics weight
    cfg = RhoConfig()
    parked_exact = compute_rho(Kinematics(v=0.0, d=0.0, h=0.0), cfg)
    gate.check(
        parked_exact == cfg.alpha * 2.0,
        f"v=0, d=0, h=0 weight {parked_exact!r} != alpha*2 = {cfg.alpha * 2.0!r}",
    )
    separation = 37.5
    floored = compute_rho(Kinematics(v=0.0, d=separation, h=0.0), cfg)
    expected = cfg.alpha * math.exp(-separation / cfg.sigma_d) * 2.0
    gate.check(
        floored == expected,
        f"v=0 velocity factor must floor at alpha: {floored!r} != {expected!r}",
    )
    away = compute_rho(Kinematics(v=3.0, d=10.0, h=math.pi), cfg)
    gate.check(away == 0.0, f"heading straight away must zero the weight, got {away!r}")
    _verdict(5, "interaction measure properties", gate)


# --- gate 6: preprocessing truth tables -----------------------------------------------


def test_criterion_6_preprocessing(parked_then_moving) -> None:
    gate = _Gate()

    mixed = make_traj([(i, 0.0) for i in range(5)], lost=[True, True, False, False, True])
    kept = filter_lost(mixed, LostPolicy.FILTER_KEEP_FIRST)
    gate.check(
        len(kept) == 1 and kept[0].points["frame"].tolist() == [2, 3],
        "lost,lost,ok,ok,lost must keep exactly the two middle points",
    )

    gapped = make_traj([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], lost=[False, True, False])
    first_only = filter_lost(gapped, LostPolicy.FILTER_KEEP_FIRST)
    gate.check(
        len(first_only) == 1 and first_only[0].points["frame"].tolist() == [0],
        "ok,lost,ok under keep-first must keep only the first point",
    )
    segments = filter_lost(gapped, LostPolicy.FILTER_KEEP_ALL)
    gate.check(
        [len(s.points) for s in segments] == [1, 1],
        "ok,lost,ok under keep-all must yield two one-point segments",
    )

    clean = make_traj([(0.0, 0.0), (1.0, 1.0)])
    unchanged = filter_lost(clean, LostPolicy.FILTER_KEEP_FIRST)
    gate.check(
        len(unchanged) == 1 and np.array_equal(unchanged[0].points, clean.points),
        "an all-ok trajectory must pass through unchanged",
    )

    alternating = classify_lost_positions(
        make_traj([(i, 0.0) for i in range(5)], lost=[True, False, True, False, True])
    )
    gate.check(
        (alternating.start, alternating.middle, alternating.end) == (True, True, True),
        f"lost,ok,lost,ok,lost must flag start+middle+end, got {alternating}",
    )
    spotless = classify_lost_positions(make_traj([(0.0, 0.0), (1.0, 0.0)]))
    gate.check(
        (spotless.start, spotless.middle, spotless.end) == (False, False, False),
        f"ok,ok must flag nothing, got {spotless}",
    )
    all_lost = classify_lost_positions(make_traj([(0.0, 0.0), (1.0, 0.0)], lost=[True, True]))
    gate.check(
        (all_lost.start, all_lost.middle, all_lost.end) == (True, False, True),
        f"an entirely lost trajectory must flag start+end only, got {all_lost}",
    )

    # resampling arithmetic: 30 fps -> 2.5 fps keeps every 12th point,
    # 25 fps -> 2.5 fps keeps every 10th
    at_30 = resample(straight_line(24), native_rate=30.0, target_rate=2.5)
    gate.check(
        at_30.points["frame"].tolist() == [0, 12],
        f"24 points at 30 fps must resample to frames [0, 12], got {at_30.points['frame'].tolist()}",
    )
    at_25 = resample(straight_line(30), native_rate=25.0, target_rate=2.5)
    gate.check(
        at_25.points["frame"].tolist() == [0, 10, 20],
        f"30 points at 25 fps must resample to frames [0, 10, 20], got {at_25.points['frame'].tolist()}",
    )
    same_rate = resample(straight_line(24), native_rate=2.5, target_rate=2.5)
    gate.check(
        np.array_equal(same_rate.points, straight_line(24).points), "equal rates must be the identity"
    )

    cfg = PreprocessConfig(target_rate=30.0)
    exactly_one = window(straight_line(20), cfg)
    gate.check(
        len(exactly_one) == 1
        and len(exactly_one[0].observed) == 8
        and len(exactly_one[0].future) == 12,
        "a 20-point trajectory must yield one 8+12 window",
    )
    gate.check(not window(straight_line(19), cfg), "a 19-point trajectory must yield no window")
    gate.check(len(window(straight_line(40), cfg)) == 2, "a 40-point trajectory must yield two windows")

    # retaining lost points must strictly inflate the share of
    # near-stationary observation segments
    def stationary_fraction(policy: LostPolicy) -> float:
        windows = preprocess_trajectory(
            parked_then_moving,
            PreprocessConfig(lost_policy=policy, target_rate=30.0),
            native_rate=30.0,
        )
        assert windows, "bias fixture must produce windows"
        flags = [
            float(np.linalg.norm(np.diff(w.observed, axis=0), axis=1).sum() < 1.0)
            for w in windows
        ]
        return sum(flags) / len(flags)

    frac_keep = stationary_fraction(LostPolicy.KEEP_LOST)
    frac_filter = stationary_fraction(LostPolicy.FILTER_KEEP_FIRST)
    gate.check(
        frac_keep > frac_filter,
        f"stationary fraction {frac_keep} (keep) must strictly exceed {frac_filter} (filter)",
    )
    _verdict(6, "preprocessing truth tables", gate)


# --- gate 7: evaluation metrics -------------------------------------------------------


def test_criterion_7_evaluation(parked_then_moving) -> None:
    gate = _Gate()
    truth = np.array([(float(i), float(2 * i)) for i in range(12)])

    gate.check(ade(truth, truth) == 0.0, "ade(truth, truth) must be exactly 0")
    gate.check(fde(truth, truth) == 0.0, "fde(truth, truth) must be exactly 0")

    shifted = truth + np.array([3.0, 4.0])
    gate.check(abs(ade(shifted, truth) - 5.0) <= 1e-12, f"3-4-5 offset ade {ade(shifted, truth)!r}")
    gate.check(abs(fde(shifted, truth) - 5.0) <= 1e-12, f"3-4-5 offset fde {fde(shifted, truth)!r}")

    last_off = truth.copy()
    last_off[-1] += np.array([3.0, 4.0])
    gate.check(
        abs(ade(last_off, truth) - 5.0 / 12.0) <= 1e-12,
        f"single final error ade {ade(last_off, truth)!r} != 5/12",
    )
    gate.check(
        abs(fde(last_off, truth) - 5.0) <= 1e-12,
        f"single final error fde {fde(last_off, truth)!r} != 5",
    )

    cfg = PreprocessConfig(target_rate=2.5)

    def single_window(coords):
        windows = preprocess_trajectory(make_traj(coords), cfg, native_rate=2.5)
        assert len(windows) == 1
        return windows[0]

    uniform = single_window([(3.0 * i, -2.0 * i) for i in range(20)])
    prediction = constant_velocity_predict(uniform)
    gate.check(
        ade(prediction.points, np.asarray(uniform.future)) == 0.0
        and fde(prediction.points, np.asarray(uniform.future)) == 0.0,
        "constant-velocity prediction must be exact on uniform motion",
    )

    parked = single_window([(7.0, 7.0)] * 20)
    still = constant_velocity_predict(parked)
    gate.check(
        ade(still.points, np.asarray(parked.future)) == 0.0,
        "a stationary observation must predict a stationary future",
    )

    turning = single_window(
        [(float(i), 0.0) for i in range(8)] + [(7.0, float(k)) for k in range(1, 13)]
    )
    turn_pred = constant_velocity_predict(turning)
    got_fde = fde(turn_pred.points, np.asarray(turning.future))
    gate.check(
        abs(got_fde - 12.0 * math.sqrt(2.0)) <= 1e-12,
        f"unit-step turn fixture fde {got_fde!r} != 12*sqrt(2)",
    )

    keep = preprocess_trajectory(
        parked_then_moving, PreprocessConfig(lost_policy=LostPolicy.KEEP_LOST, target_rate=2.5), 2.5
    )
    filtered = preprocess_trajectory(
        parked_then_moving,
        PreprocessConfig(lost_policy=LostPolicy.FILTER_KEEP_FIRST, target_rate=2.5),
        2.5,
    )
    keep_row = next(
        r for r in evaluate(keep, constant_velocity_predict, config_label="keep_lost")
        if r.group == "all"
    )
    filt_row = next(
        r
        for r in evaluate(filtered, constant_velocity_predict, config_label="filter_keep_first")
        if r.group == "all"
    )
    gate.check(
        abs(keep_row.ade - 13.0 * math.sqrt(2.0) / 3.0) <= 1e-9,
        f"keep-lost ade {keep_row.ade!r} != 13*sqrt(2)/3",
    )
    gate.check(
        abs(filt_row.ade - 13.0 * math.sqrt(2.0)) <= 1e-9,
        f"filtered ade {filt_row.ade!r} != 13*sqrt(2)",
    )
    gate.check(
        keep_row.ade < filt_row.ade and keep_row.fde < filt_row.fde,
        "retaining lost points must lower both displacement scores on the bias fixture",
    )
    _verdict(7, "evaluation metrics", gate)


# --- gate 8: determinism --------------------------------------------------------------


def test_criterion_8_determinism(tmp_path) -> None:
    annotations = write_sdd_tree(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", annotations, out)

    def run_everything() -> dict[str, bytes]:
        for argv in (
            ["ingest", "--config", config],
            ["stats", "--config", config],
            ["aim", "--config", config, "--top-k", "2"],
            ["eval", "--config", config, "--lost-policy", "keep_lost,filter_keep_first"],
        ):
            _run_cli(argv)
        snapshot = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        shutil.rmtree(out)
        return snapshot

    first = run_everything()
    second = run_everything()
    gate = _Gate()
    gate.check(len(first) >= 8, f"expected a full output tree, found {len(first)} files")
    gate.check(
        sorted(first) == sorted(second),
        f"the two runs produced different file sets: {sorted(set(first) ^ set(second))}",
    )
    differing = [name for name in first if name in second and first[name] != second[name]]
    gate.check(not differing, f"byte differences between runs in: {differing}")
    _verdict(8, "determinism", gate)
