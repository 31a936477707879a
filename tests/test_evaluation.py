from __future__ import annotations

import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_traj
from trajscope.evaluation import (
    Prediction,
    ade,
    constant_velocity_predict,
    evaluate,
    load_predictions,
    predictor_from_mapping,
    fde,
)
from trajscope.preprocess import LostPolicy, PreprocessConfig, TrajectoryWindow, preprocess_trajectory, window
from trajscope.types import ParseError, SourceRef, StructuralError

CFG = PreprocessConfig(target_rate=2.5)  # identity resample at native 2.5


def one_window(coords, class_label="Pedestrian", track_id=1, cfg=CFG):
    traj = make_traj(coords, class_label=class_label, track_id=track_id)
    wins = window(traj, cfg)
    assert len(wins) == 1
    return wins[0]


# --- ade / fde ------------------------------------------------------------------


def test_ade_identity_zero() -> None:
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert ade(pts, pts) == 0.0
    assert fde(pts, pts) == 0.0


def test_ade_constant_offset() -> None:
    truth = np.array([[float(i), 0.0] for i in range(12)])
    pred = truth + np.array([3.0, 4.0])
    assert ade(pred, truth) == pytest.approx(5.0, abs=1e-12)
    assert fde(pred, truth) == pytest.approx(5.0, abs=1e-12)


def test_ade_last_point_only() -> None:
    truth = np.array([[float(i), 0.0] for i in range(12)])
    pred = truth.copy()
    pred[-1] += np.array([3.0, 4.0])
    assert ade(pred, truth) == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert fde(pred, truth) == pytest.approx(5.0, abs=1e-12)


def test_fde_ignores_intermediate_errors() -> None:
    truth = np.array([[float(i), 0.0] for i in range(5)])
    pred = truth.copy()
    pred[1] += np.array([100.0, -40.0])
    assert fde(pred, truth) == 0.0
    assert ade(pred, truth) > 0.0


def test_length_mismatch_rejected() -> None:
    a = np.zeros((3, 2))
    b = np.zeros((4, 2))
    with pytest.raises(StructuralError):
        ade(a, b)
    with pytest.raises(StructuralError):
        fde(a, b)
    with pytest.raises(StructuralError):
        ade(np.zeros((0, 2)), np.zeros((0, 2)))


def test_translation_invariance() -> None:
    rng = np.random.default_rng(23)
    for _ in range(20):
        truth = rng.uniform(0, 500, size=(12, 2))
        pred = rng.uniform(0, 500, size=(12, 2))
        shift = rng.uniform(-1000, 1000, size=2)
        assert ade(pred + shift, truth + shift) == pytest.approx(ade(pred, truth), rel=1e-12)
        assert fde(pred + shift, truth + shift) == pytest.approx(fde(pred, truth), rel=1e-12)


def test_ade_equals_fde_for_single_point() -> None:
    rng = np.random.default_rng(24)
    pred = rng.uniform(0, 10, size=(1, 2))
    truth = rng.uniform(0, 10, size=(1, 2))
    assert ade(pred, truth) == fde(pred, truth)


# --- constant-velocity predictor ------------------------------------------------


def test_cv_stationary() -> None:
    win = one_window([(7.0, 9.0)] * 20)
    pred = constant_velocity_predict(win)
    assert isinstance(pred, Prediction)
    assert pred.window_id == win.window_id
    assert ade(pred.points, win.future) == 0.0


def test_cv_uniform_motion_exact_zero() -> None:
    win = one_window([(0.5 * i, 0.25 * i) for i in range(20)])
    pred = constant_velocity_predict(win)
    assert ade(pred.points, win.future) == 0.0
    assert fde(pred.points, win.future) == 0.0


def test_cv_turning_truth_hand_values() -> None:
    coords = [(2.0 * i, 0.0) for i in range(8)]  # observed: +x at 2/step
    coords += [(14.0, 2.0 * i) for i in range(1, 13)]  # truth turns +y
    win = one_window(coords)
    pred = constant_velocity_predict(win)
    assert fde(pred.points, win.future) == pytest.approx(24.0 * math.sqrt(2.0), rel=1e-12)
    assert ade(pred.points, win.future) == pytest.approx(13.0 * math.sqrt(2.0), rel=1e-12)


def test_cv_spec_geometry_unit_steps() -> None:
    coords = [(float(i), 0.0) for i in range(8)]  # steps (1,0)
    coords += [(7.0, float(i)) for i in range(1, 13)]  # truth steps (0,1)
    win = one_window(coords)
    pred = constant_velocity_predict(win)
    assert fde(pred.points, win.future) == pytest.approx(12.0 * math.sqrt(2.0), rel=1e-12)


# --- evaluate --------------------------------------------------------------------


def test_evaluate_perfect_predictor() -> None:
    win = one_window([(float(i), 1.0) for i in range(20)])
    reports = evaluate([win], lambda w: Prediction(w.window_id, w.future))
    by_group = {(r.dataset, r.group): r for r in reports}
    assert by_group[("sdd", "all")].ade == 0.0
    assert by_group[("sdd", "all")].fde == 0.0
    assert by_group[("sdd", "Pedestrian")].n_windows == 1


def test_evaluate_group_mean() -> None:
    win_a = one_window([(float(i), 0.0) for i in range(20)], track_id=1)
    win_b = one_window([(float(i), 0.0) for i in range(20)], track_id=2)

    def offset_second(w):
        pts = np.array(w.future, dtype=float)
        if w.track.track_id == 2:
            pts = pts + np.array([0.0, 10.0])
        return Prediction(w.window_id, pts)

    reports = evaluate([win_a, win_b], offset_second)
    all_row = next(r for r in reports if r.group == "all")
    assert all_row.ade == pytest.approx(5.0)
    assert all_row.fde == pytest.approx(5.0)
    assert all_row.n_windows == 2


def test_evaluate_per_class_groups() -> None:
    wins = [
        one_window([(float(i), 0.0) for i in range(20)], class_label="Pedestrian", track_id=1),
        one_window([(float(i), 2.0) for i in range(20)], class_label="Biker", track_id=2),
    ]
    reports = evaluate(wins, constant_velocity_predict)
    groups = [r.group for r in reports]
    assert groups == ["all", "Biker", "Pedestrian"]  # all first, classes sorted
    assert all(r.n_windows >= 1 for r in reports)
    # classes with no windows are omitted entirely
    assert "Car" not in groups


def test_evaluate_permutation_invariant() -> None:
    rng = np.random.default_rng(29)
    wins = []
    for k in range(12):
        base = rng.uniform(0, 100, size=2)
        step = rng.uniform(-2, 2, size=2)
        coords = [tuple(base + i * step + rng.uniform(-1, 1, 2)) for i in range(20)]
        wins.append(one_window(coords, track_id=k))
    fwd = evaluate(wins, constant_velocity_predict)
    rev = evaluate(wins[::-1], constant_velocity_predict)
    assert [(r.group, r.ade, r.fde, r.n_windows) for r in fwd] == [
        (r.group, r.ade, r.fde, r.n_windows) for r in rev
    ]


def test_evaluate_empty_windows() -> None:
    assert evaluate([], constant_velocity_predict) == []


def oracle_errors(prediction, truth) -> tuple[float, float]:
    """One window's (ade, fde) as before one displacement pass served both:
    ade over all gaps, fde from the last gap alone."""
    gaps = np.asarray(prediction, dtype=np.float64) - np.asarray(truth, dtype=np.float64)
    return float(np.hypot(gaps[:, 0], gaps[:, 1]).mean()), float(np.hypot(gaps[-1][0], gaps[-1][1]))


def evaluate_oracle(windows, predictor) -> list[tuple]:
    """The per-window loop `evaluate` replaced, kept as its reference, as
    (dataset, group, ade, fde, n_windows) rows."""
    errors: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for w in windows:
        scored = oracle_errors(predictor(w).points, w.future)
        for group in ("all", w.class_label):
            errors.setdefault((w.track.source.dataset, group), []).append(scored)
    return [
        (dataset, group, math.fsum(a for a, _ in rows) / len(rows), math.fsum(f for _, f in rows) / len(rows), len(rows))
        for (dataset, group), rows in sorted(errors.items(), key=lambda kv: (kv[0][0], kv[0][1] != "all", kv[0][1]))
    ]


@st.composite
def scored_windows(draw) -> tuple[list[TrajectoryWindow], dict[str, np.ndarray]]:
    """Windows of 1-4 future points in two datasets and three classes, each with a prediction."""
    coords = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    windows, predictions = [], {}
    for k in range(draw(st.integers(0, 8))):
        n = draw(st.integers(1, 4))
        future, predicted = (np.reshape(draw(st.lists(coords, min_size=2 * n, max_size=2 * n)), (n, 2)) for _ in "ab")
        traj = make_traj(
            [(0.0, 0.0)],
            class_label=draw(st.sampled_from(["Pedestrian", "Biker", "Car"])),
            source=SourceRef(draw(st.sampled_from(["sdd", "ind"])), "scene", "video0"),
        )
        windows.append(TrajectoryWindow(traj, k, np.arange(n), np.zeros((0, 2)), future))
        predictions[windows[-1].window_id] = predicted
    return windows, predictions


@settings(max_examples=80, deadline=None)
@given(scored_windows())
def test_evaluate_equals_the_per_window_loop_bit_for_bit(scored) -> None:
    windows, predictions = scored
    predict = predictor_from_mapping(predictions)
    got = [(r.dataset, r.group, r.ade, r.fde, r.n_windows) for r in evaluate(windows, predict)]
    assert got == evaluate_oracle(windows, predict)  # == on floats: the same bits, as none is NaN or -0.0
    for w in windows:
        want = oracle_errors(predictions[w.window_id], w.future)
        assert (ade(predictions[w.window_id], w.future), fde(predictions[w.window_id], w.future)) == want


def test_lost_policy_bias_ordering(parked_then_moving) -> None:
    traj = parked_then_moving
    keep = preprocess_trajectory(
        traj, PreprocessConfig(lost_policy=LostPolicy.KEEP_LOST, target_rate=2.5), 2.5
    )
    filtered = preprocess_trajectory(
        traj, PreprocessConfig(lost_policy=LostPolicy.FILTER_KEEP_FIRST, target_rate=2.5), 2.5
    )
    assert len(keep) == 3 and len(filtered) == 1

    keep_row = next(
        r for r in evaluate(keep, constant_velocity_predict, config_label="keep_lost")
        if r.group == "all"
    )
    filt_row = next(
        r
        for r in evaluate(filtered, constant_velocity_predict, config_label="filter_keep_first")
        if r.group == "all"
    )
    assert keep_row.config == "keep_lost"
    assert filt_row.config == "filter_keep_first"
    # stationary padding dilutes the error: same raw data, smaller numbers
    assert keep_row.ade == pytest.approx(13.0 * math.sqrt(2.0) / 3.0, rel=1e-12)
    assert filt_row.ade == pytest.approx(13.0 * math.sqrt(2.0), rel=1e-12)
    assert keep_row.fde == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-12)
    assert filt_row.fde == pytest.approx(24.0 * math.sqrt(2.0), rel=1e-12)
    assert keep_row.ade < filt_row.ade
    assert keep_row.fde < filt_row.fde


# --- external predictions -----------------------------------------------------------


def test_predictor_from_mapping() -> None:
    win = one_window([(float(i), 0.0) for i in range(20)])
    mapping = {win.window_id: np.array(win.future)}
    predictor = predictor_from_mapping(mapping)
    reports = evaluate([win], predictor)
    assert all(r.ade == 0.0 for r in reports)


def test_predictor_from_mapping_missing_window() -> None:
    win = one_window([(float(i), 0.0) for i in range(20)])
    predictor = predictor_from_mapping({"someone:else:entirely:1@0": np.zeros((12, 2))})
    with pytest.raises(StructuralError):
        evaluate([win], predictor)


def test_predictor_from_mapping_wrong_length() -> None:
    win = one_window([(float(i), 0.0) for i in range(20)])
    predictor = predictor_from_mapping({win.window_id: np.zeros((5, 2))})
    with pytest.raises(StructuralError):
        evaluate([win], predictor)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_predictor_from_mapping_rejects_non_finite_points(bad) -> None:
    win = one_window([(float(i), 0.0) for i in range(20)])
    points = np.array(win.future)
    points[3, 1] = bad
    with pytest.raises(StructuralError) as err:
        evaluate([win], predictor_from_mapping({win.window_id: points}))
    assert str(err.value) == f"prediction for window {win.window_id} has non-finite points"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_load_predictions_rejects_non_finite_points(tmp_path, bad) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_text('{"window_id": "a", "points": [[0, 0]]}\n' f'{{"window_id": "b", "points": [[0, {bad}]]}}\n')
    with pytest.raises(StructuralError) as err:
        load_predictions(path)
    assert str(err.value) == f"{path}:2: points must be finite numbers"


def test_load_predictions_jsonl(tmp_path) -> None:
    win = one_window([(float(i), 0.0) for i in range(20)])
    path = tmp_path / "preds.jsonl"
    record = {"window_id": win.window_id, "points": [[float(x), float(y)] for x, y in win.future]}
    path.write_text(json.dumps(record) + "\n")
    mapping = load_predictions(path)
    assert set(mapping) == {win.window_id}
    reports = evaluate([win], predictor_from_mapping(mapping))
    assert all(r.fde == 0.0 for r in reports)


def test_load_predictions_rejects_bad_record(tmp_path) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_text('{"points": [[0, 0]]}\n')
    with pytest.raises(StructuralError):
        load_predictions(path)
    path.write_text("not json\n")
    with pytest.raises(StructuralError):
        load_predictions(path)



@pytest.mark.parametrize("window_id", ["[1]", "5", "null"])
def test_load_predictions_refuses_a_window_id_that_is_not_a_string(tmp_path, window_id) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_text('{"window_id": "5", "points": [[0, 0]]}\n' f'{{"window_id": {window_id}, "points": [[0, 0]]}}\n')
    with pytest.raises(StructuralError) as err:
        load_predictions(path)
    assert str(err.value) == f"{path}:2: window_id must be a string, got {window_id}"


def test_load_predictions_non_utf8_names_file_and_line(tmp_path) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b'{"window_id": "a", "points": [[0, 0]]}\n{"window_id": "caf\xe9"}\n')
    with pytest.raises(ParseError) as err:
        load_predictions(path)
    assert str(err.value) == f"{path}:2: not valid UTF-8 (byte 0xe9)"
