from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_traj, straight_line
from trajscope.preprocess import (
    LostPolicy,
    PreprocessConfig,
    classify_lost_positions,
    filter_lost,
    preprocess_trajectory,
    resample,
    window,
)
from trajscope.types import ConfigError


def flags_traj(flags: list[bool]):
    return make_traj([(float(i), 0.0) for i in range(len(flags))], lost=flags)


# --- filter_lost -----------------------------------------------------------


def test_filter_keep_first_trims_and_keeps_middle_run() -> None:
    traj = flags_traj([True, True, False, False, True])
    (out,) = filter_lost(traj, LostPolicy.FILTER_KEEP_FIRST)
    assert out.points["frame"].tolist() == [2, 3]
    assert not out.points["lost"].any()


def test_filter_keep_first_keeps_only_first_segment() -> None:
    traj = flags_traj([False, True, False])
    (out,) = filter_lost(traj, LostPolicy.FILTER_KEEP_FIRST)
    assert out.points["frame"].tolist() == [0]


def test_filter_keep_all_returns_each_segment() -> None:
    traj = flags_traj([False, True, False])
    outs = filter_lost(traj, LostPolicy.FILTER_KEEP_ALL)
    assert [t.points["frame"].tolist() for t in outs] == [[0], [2]]
    assert [t.uid for t in outs] == ["1", "1.1"]


def test_filter_all_ok_is_identity() -> None:
    traj = flags_traj([False, False, False])
    (out,) = filter_lost(traj, LostPolicy.FILTER_KEEP_FIRST)
    assert np.array_equal(out.points, traj.points)
    (out_all,) = filter_lost(traj, LostPolicy.FILTER_KEEP_ALL)
    assert np.array_equal(out_all.points, traj.points)


def test_filter_keep_lost_is_identity() -> None:
    traj = flags_traj([True, False, True])
    (out,) = filter_lost(traj, LostPolicy.KEEP_LOST)
    assert np.array_equal(out.points, traj.points)


def test_filter_entirely_lost_yields_empty() -> None:
    traj = flags_traj([True, True])
    assert filter_lost(traj, LostPolicy.FILTER_KEEP_FIRST) == []
    assert filter_lost(traj, LostPolicy.FILTER_KEEP_ALL) == []


def test_filter_keep_first_idempotent_and_prefix_contiguous() -> None:
    rng = random.Random(11)
    for _ in range(50):
        flags = [rng.random() < 0.4 for _ in range(rng.randrange(1, 30))]
        traj = flags_traj(flags)
        once = filter_lost(traj, LostPolicy.FILTER_KEEP_FIRST)
        if not once:
            assert all(flags)
            continue
        (out,) = once
        assert not out.points["lost"].any()
        frames = out.points["frame"].tolist()
        # contiguous run within the source
        assert frames == list(range(frames[0], frames[0] + len(frames)))
        (again,) = filter_lost(out, LostPolicy.FILTER_KEEP_FIRST)
        assert np.array_equal(again.points, out.points)


def test_filter_keep_all_conserves_points() -> None:
    rng = random.Random(12)
    for _ in range(50):
        flags = [rng.random() < 0.4 for _ in range(rng.randrange(1, 30))]
        traj = flags_traj(flags)
        outs = filter_lost(traj, LostPolicy.FILTER_KEEP_ALL)
        assert sum(len(t) for t in outs) == sum(not f for f in flags)
        assert len({t.uid for t in outs}) == len(outs)


# --- classify_lost_positions ------------------------------------------------


@pytest.mark.parametrize(
    "flags,expected",
    [
        ([True, False, True, False, True], (True, True, True)),
        ([False, False], (False, False, False)),
        ([True, True], (True, False, True)),  # all lost
        ([True, False], (True, False, False)),
        ([False, True], (False, False, True)),
        ([False, True, False], (False, True, False)),
        ([False, True, True, False], (False, True, False)),
        ([True], (True, False, True)),
    ],
)
def test_classify_lost_positions(flags, expected) -> None:
    got = classify_lost_positions(flags_traj(flags))
    assert (got.start, got.middle, got.end) == expected


# --- resample ---------------------------------------------------------------


def test_resample_30_to_2p5() -> None:
    traj = straight_line(24)
    out = resample(traj, native_rate=30.0, target_rate=2.5)
    assert out.points["frame"].tolist() == [0, 12]


def test_resample_25_to_2p5_keeps_every_tenth() -> None:
    traj = straight_line(25)
    out = resample(traj, native_rate=25.0, target_rate=2.5)
    assert out.points["frame"].tolist() == [0, 10, 20]


def test_resample_identity_when_rates_match() -> None:
    traj = straight_line(7)
    out = resample(traj, native_rate=2.5, target_rate=2.5)
    assert np.array_equal(out.points, traj.points)


def test_resample_noninteger_ratio_is_config_error() -> None:
    with pytest.raises(ConfigError):
        resample(straight_line(5), native_rate=30.0, target_rate=4.0)


def test_resample_anchors_at_first_point() -> None:
    traj = straight_line(30, start_frame=17)
    out = resample(traj, native_rate=30.0, target_rate=2.5)
    assert out.points["frame"].tolist() == [17, 29, 41]


def test_resample_carries_flags() -> None:
    flags = [False] * 13
    flags[12] = True
    traj = flags_traj(flags)
    out = resample(traj, native_rate=30.0, target_rate=2.5)
    assert out.points["lost"].tolist() == [0, 1]


# --- window ------------------------------------------------------------------


def test_window_exact_length() -> None:
    cfg = PreprocessConfig()
    traj = straight_line(20)
    (w,) = window(traj, cfg)
    assert w.observed.shape == (8, 2)
    assert w.future.shape == (12, 2)
    assert w.start_frame == 0


def test_window_too_short_yields_none() -> None:
    assert window(straight_line(19), PreprocessConfig()) == []


def test_window_tiles_without_overlap() -> None:
    ws = window(straight_line(47), PreprocessConfig())
    assert len(ws) == 2
    assert [w.start_frame for w in ws] == [0, 20]


def test_window_stride_override() -> None:
    cfg = PreprocessConfig(stride=10)
    ws = window(straight_line(40), cfg)
    assert [w.start_frame for w in ws] == [0, 10, 20]


def test_window_ids_are_distinct() -> None:
    ws = window(straight_line(40), PreprocessConfig())
    assert len({w.window_id for w in ws}) == 2


def test_window_carries_class_and_frames() -> None:
    traj = straight_line(20, class_label="Biker")
    (w,) = window(traj, PreprocessConfig())
    assert w.class_label == "Biker"
    assert list(w.frames[:3]) == [0, 1, 2]
    np.testing.assert_allclose(w.observed[1], [1.0, 0.0])


def test_config_validation() -> None:
    with pytest.raises(ConfigError):
        PreprocessConfig(observe_len=1)
    with pytest.raises(ConfigError):
        PreprocessConfig(predict_len=0)


# --- pipeline properties ------------------------------------------------------


def test_resample_then_window_spacing() -> None:
    rng = random.Random(5)
    cfg = PreprocessConfig()
    for _ in range(20):
        n = rng.randrange(240, 700)
        traj = straight_line(n, start_frame=rng.randrange(100))
        out = resample(traj, 30.0, 2.5)
        for w in window(out, cfg):
            assert (np.diff(w.frames) == 12).all()


def test_preprocess_trajectory_pipeline(parked_then_moving) -> None:
    cfg = PreprocessConfig(lost_policy=LostPolicy.FILTER_KEEP_FIRST, target_rate=30.0)
    ws = preprocess_trajectory(parked_then_moving, cfg, native_rate=30.0)
    assert len(ws) == 1
    assert ws[0].start_frame == 40

    cfg_keep = PreprocessConfig(lost_policy=LostPolicy.KEEP_LOST, target_rate=30.0)
    ws_keep = preprocess_trajectory(parked_then_moving, cfg_keep, native_rate=30.0)
    assert [w.start_frame for w in ws_keep] == [0, 20, 40]


def test_stationarity_bias_property(parked_then_moving) -> None:
    # Retaining lost points inflates the share of near-stationary observation
    # segments; filtering removes them entirely on this fixture.
    eps = 1.0

    def stationary_fraction(policy: LostPolicy) -> float:
        cfg = PreprocessConfig(lost_policy=policy, target_rate=30.0)
        ws = preprocess_trajectory(parked_then_moving, cfg, native_rate=30.0)
        assert ws
        flags = [
            float(np.linalg.norm(np.diff(w.observed, axis=0), axis=1).sum() < eps)
            for w in ws
        ]
        return sum(flags) / len(flags)

    frac_keep = stationary_fraction(LostPolicy.KEEP_LOST)
    frac_filter = stationary_fraction(LostPolicy.FILTER_KEEP_FIRST)
    assert frac_keep == pytest.approx(2.0 / 3.0)
    assert frac_filter == 0.0
    assert frac_keep > frac_filter


def test_drop_generated_points() -> None:
    pts = [(float(i), 0.0) for i in range(21)]
    traj = make_traj(pts)
    traj.points[3] = (3, 3.0, 0.0, 0, 0, 1)
    cfg = PreprocessConfig(drop_generated=True, target_rate=30.0)
    ws = preprocess_trajectory(traj, cfg, native_rate=30.0)
    # one generated point dropped -> 20 points -> exactly one window
    assert len(ws) == 1


# --- reference loops ------------------------------------------------------------
# Per-point loop versions of the lost-run code: the array code must match them.


def segments_oracle(lost: list[bool]) -> list[list[int]]:
    """Indices of each maximal run of consecutive non-lost points."""
    runs: list[list[int]] = []
    current: list[int] = []
    for i, flag in enumerate(lost):
        if flag:
            if current:
                runs.append(current)
                current = []
        else:
            current.append(i)
    if current:
        runs.append(current)
    return runs


def classify_oracle(flags: list[bool]) -> tuple[bool, bool, bool]:
    if not flags:
        return (False, False, False)
    middle = False
    in_run = False
    bounded_left = False
    for i, lost in enumerate(flags):
        if lost:
            if not in_run:
                in_run = True
                bounded_left = i > 0 and not flags[i - 1]
        else:
            if in_run and bounded_left:
                middle = True
            in_run = False
    return (flags[0], middle, flags[-1])


lost_masks = st.lists(st.booleans(), max_size=40)
EDGE_MASKS = ([], [True], [False], [True] * 9, [False] * 9)


def check_filter_lost(flags: list[bool], segment: int) -> None:
    base = flags_traj(flags)
    traj = base.with_points(base.points, segment=segment)
    runs = segments_oracle(flags)
    (kept,) = filter_lost(traj, LostPolicy.KEEP_LOST)
    assert kept is traj
    first = filter_lost(traj, LostPolicy.FILTER_KEEP_FIRST)
    assert [(t.segment, t.points.tobytes()) for t in first] == [
        (segment, traj.points[run].tobytes()) for run in runs[:1]
    ]
    every = filter_lost(traj, LostPolicy.FILTER_KEEP_ALL)
    assert [(t.segment, t.points.tobytes()) for t in every] == [
        (i, traj.points[run].tobytes()) for i, run in enumerate(runs)
    ]


@settings(max_examples=200, deadline=None)
@given(lost_masks, st.integers(0, 3))
def test_filter_lost_matches_the_loop_oracle(flags, segment) -> None:
    for mask in (*EDGE_MASKS, flags):
        check_filter_lost(mask, segment)


@settings(max_examples=200, deadline=None)
@given(lost_masks)
def test_classify_lost_positions_matches_the_loop_oracle(flags) -> None:
    for mask in (*EDGE_MASKS, flags):
        got = classify_lost_positions(flags_traj(mask))
        assert (got.start, got.middle, got.end) == classify_oracle(mask)
