from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_traj, straight_line
from trajscope import aim
from trajscope.aim import (
    InteractionPair,
    Kinematics,
    MeasureSeries,
    RhoConfig,
    accumulate_aim,
    compute_kinematics,
    compute_rho,
    extract_interactions,
    final_bounds,
    fit_normalizers,
    measure_interaction,
    sweep,
)
from trajscope.mi import BOUND_MARGIN, mi_prefix_bound
from trajscope.types import ConfigError, DomainError, InsufficientDataError, MIConfig, StructuralError, Trajectory


def pair_from(coords_i, coords_j, n_window: int, start_frame: int = 0) -> InteractionPair:
    ti = make_traj(coords_i, start_frame=start_frame, track_id=1)
    tj = make_traj(coords_j, start_frame=start_frame, track_id=2)
    pairs = extract_interactions([ti, tj], n_window=n_window)
    assert pairs, "fixture trajectories must overlap enough"
    return pairs[0]  # direction 1 -> 2


def walker_vs_parked(n: int = 10, n_window: int = 3) -> InteractionPair:
    # I walks +x at 1 px/frame from the origin; J parked at (10, 0).
    coords_i = [(float(i), 0.0) for i in range(n)]
    coords_j = [(10.0, 0.0)] * n
    return pair_from(coords_i, coords_j, n_window)


# --- kinematics -----------------------------------------------------------------


def test_kinematics_hand_values() -> None:
    pair = walker_vs_parked()
    kin = compute_kinematics(pair, t=3)
    # steps of length 1 for I, 0 for J; separations 9, 8, 7 at frames 1..3
    assert kin.v == pytest.approx(1.0, abs=1e-15)
    assert kin.d == pytest.approx(8.0, abs=1e-15)
    assert kin.h == pytest.approx(0.0, abs=1e-15)


def test_kinematics_heading_away() -> None:
    # I walks +x, J parked behind at (-10, 0): bearing opposes every step.
    coords_i = [(float(i), 0.0) for i in range(10)]
    coords_j = [(-10.0, 0.0)] * 10
    pair = pair_from(coords_i, coords_j, n_window=3)
    kin = compute_kinematics(pair, t=3)
    assert kin.h == pytest.approx(math.pi, abs=1e-12)


def test_kinematics_right_angle() -> None:
    coords_i = [(0.0, float(i)) for i in range(10)]  # walking +y
    coords_j = [(10.0, 0.0)] * 10  # off to the +x side
    pair = pair_from(coords_i, coords_j, n_window=3)
    kin = compute_kinematics(pair, t=3)
    # bearing rotates as I moves; at frame n the bearing from (0,n-1) to
    # (10,0) has angle atan2(10*1, -(n-1)) against step (0,1)
    expected = np.mean(
        [math.atan2(10.0, -(n - 1.0)) for n in (1, 2, 3)]
    )
    assert kin.h == pytest.approx(expected, rel=1e-12)


def test_kinematics_stationary_pair_empty_average() -> None:
    coords = [(3.0, 4.0)] * 8
    pair = pair_from(coords, [(9.0, 9.0)] * 8, n_window=3)
    kin = compute_kinematics(pair, t=3)
    assert kin.v == 0.0
    assert kin.h == 0.0  # all steps skipped -> empty-average convention
    assert kin.d == pytest.approx(math.hypot(6.0, 5.0), rel=1e-12)


def test_kinematics_constant_velocity_exact() -> None:
    # dyadic step lengths make the mean exact: V must equal the per-step sum
    coords_i = [(0.5 * i, 0.0) for i in range(40)]
    coords_j = [(0.0, 0.25 * i) for i in range(40)]
    pair = pair_from(coords_i, coords_j, n_window=30)
    kin = compute_kinematics(pair, t=35)
    assert kin.v == 0.75  # exactly


def test_kinematics_window_range_error() -> None:
    pair = walker_vs_parked()
    with pytest.raises(DomainError):
        compute_kinematics(pair, t=2)


def test_kinematics_acceleration_term() -> None:
    # speeds of I: 1,2,3 -> |dspeed| = 1,1 ; J parked -> 0
    coords_i = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
    coords_j = [(50.0, 0.0)] * 4
    pair = pair_from(coords_i, coords_j, n_window=3)
    kin = compute_kinematics(pair, t=3)
    assert kin.a == pytest.approx(1.0, abs=1e-15)
    assert kin.v == pytest.approx(2.0, abs=1e-15)


# --- rho ---------------------------------------------------------------------------


def test_rho_hand_value() -> None:
    cfg = RhoConfig(alpha=0.3, v0=1.0, sigma_d=8.0)
    kin = Kinematics(v=1.0, d=8.0, h=0.0)
    assert compute_rho(kin, cfg) == pytest.approx(1.6 / math.e, rel=1e-12)


def test_rho_zero_velocity_floor() -> None:
    cfg = RhoConfig(alpha=0.3, v0=1.0, sigma_d=8.0)
    kin = Kinematics(v=0.0, d=4.0, h=math.pi / 2)
    # V* = 0 -> factor alpha; H = pi/2 -> H* = 0 -> (1 + H*) = 1
    assert compute_rho(kin, cfg) == pytest.approx(0.3 * math.exp(-0.5), rel=1e-12)


def test_rho_directly_behind_zeroes() -> None:
    cfg = RhoConfig()
    kin = Kinematics(v=3.0, d=10.0, h=math.pi)
    assert compute_rho(kin, cfg) == 0.0


def test_rho_decreases_with_distance() -> None:
    cfg = RhoConfig()
    rng = np.random.default_rng(31)
    for _ in range(200):
        v = float(rng.uniform(0, 10))
        h = float(rng.uniform(0, math.pi))
        d1, d2 = sorted(rng.uniform(0, 2000, size=2))
        if d1 == d2:
            continue
        r_near = compute_rho(Kinematics(v=v, d=d1, h=h), cfg)
        r_far = compute_rho(Kinematics(v=v, d=d2, h=h), cfg)
        if h < math.pi:  # at h = pi both are exactly 0
            assert r_near > r_far


def test_rho_ablations() -> None:
    kin = Kinematics(v=2.0, d=50.0, h=math.pi / 4, a=1.0)
    cfg = RhoConfig(alpha=0.3, v0=1.0, sigma_d=100.0, a0=1.0)
    v_star = 2.0 / 3.0
    d_star = math.exp(-0.5)
    h_star = 1.0 - 2.0 * (math.pi / 4) / math.pi  # 0.5
    full = compute_rho(kin, cfg)
    assert full == pytest.approx((0.3 + v_star) * d_star * 1.5, rel=1e-12)

    no_v = compute_rho(kin, RhoConfig(alpha=0.3, v0=1.0, sigma_d=100.0, use_v=False))
    assert no_v == pytest.approx(d_star * 1.5, rel=1e-12)

    no_d = compute_rho(kin, RhoConfig(alpha=0.3, v0=1.0, sigma_d=100.0, use_d=False))
    assert no_d == pytest.approx((0.3 + v_star) * 1.5, rel=1e-12)

    no_h = compute_rho(kin, RhoConfig(alpha=0.3, v0=1.0, sigma_d=100.0, use_h=False))
    assert no_h == pytest.approx((0.3 + v_star) * d_star, rel=1e-12)

    with_a = compute_rho(kin, RhoConfig(alpha=0.3, v0=1.0, sigma_d=100.0, a0=1.0, use_a=True))
    assert with_a == pytest.approx((0.3 + v_star + 0.5) * d_star * 1.5, rel=1e-12)


def test_rho_config_validation() -> None:
    with pytest.raises(ConfigError):
        RhoConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        RhoConfig(v0=0.0)
    with pytest.raises(ConfigError):
        RhoConfig(sigma_d=-5.0)


# --- accumulate -----------------------------------------------------------------


def series(frames, values):
    return list(zip(frames, values))


def test_accumulate_single_term() -> None:
    pair = walker_vs_parked()
    out = accumulate_aim(pair, series([3], [2.0]), series([3], [0.25]), delta=0.9)
    assert out.aim.tolist() == [0.5]


def test_accumulate_geometric_limit() -> None:
    pair = walker_vs_parked(n=80, n_window=3)
    frames = list(range(3, 80))
    mi = [1.0] * len(frames)
    rho = [1.0] * len(frames)
    out = accumulate_aim(pair, series(frames, mi), series(frames, rho), delta=0.5)
    # partial sums of a geometric series: 1, 1.5, 1.75, ... -> 2
    assert out.aim[0] == 1.0
    assert out.aim[1] == 1.5
    assert out.aim[2] == 1.75
    assert out.aim[-1] == pytest.approx(2.0, rel=1e-9)


def test_accumulate_delta_one_monotone_on_random_sequences() -> None:
    pair = walker_vs_parked(n=120, n_window=3)
    frames = list(range(3, 120))
    rng = np.random.default_rng(33)
    for _ in range(100):
        mi = rng.uniform(0, 5, len(frames))
        rho = rng.uniform(0, 2, len(frames))
        out = accumulate_aim(pair, series(frames, mi), series(frames, rho), delta=1.0)
        assert (np.diff(out.aim) >= 0).all()
        assert (out.aim >= 0).all()


def test_accumulate_delta_ordering() -> None:
    pair = walker_vs_parked(n=120, n_window=3)
    frames = list(range(3, 120))
    rng = np.random.default_rng(34)
    for _ in range(25):
        mi = rng.uniform(0, 5, len(frames))
        rho = rng.uniform(0, 2, len(frames))
        lo = accumulate_aim(pair, series(frames, mi), series(frames, rho), delta=0.9)
        hi = accumulate_aim(pair, series(frames, mi), series(frames, rho), delta=0.98)
        assert (lo.aim <= hi.aim + 1e-15).all()


def test_recurrence_matches_direct_sum_to_1e9() -> None:
    pair = walker_vs_parked(n=10_004, n_window=3)
    frames = list(range(3, 10_004))
    rng = np.random.default_rng(35)
    mi = rng.uniform(0, 5, len(frames))
    rho = rng.uniform(0, 2, len(frames))
    delta = 0.98
    out = accumulate_aim(pair, series(frames, mi), series(frames, rho), delta=delta)
    terms = mi * rho
    for idx in (0, 1, 7, 100, 5000, len(frames) - 1):
        direct = float(np.sum(terms[: idx + 1] * delta ** np.arange(idx, -1, -1)))
        assert out.aim[idx] == pytest.approx(direct, rel=1e-9)


def test_accumulate_validates_series() -> None:
    pair = walker_vs_parked()
    with pytest.raises(StructuralError):
        accumulate_aim(pair, series([3, 4], [1, 1]), series([3], [1]), delta=0.98)
    with pytest.raises(StructuralError):
        accumulate_aim(pair, series([3, 4], [1, 1]), series([3, 5], [1, 1]), delta=0.98)
    for frames, rho, error, message in (
        ([], [], StructuralError, "mi series is empty"),
        ([4, 3], [1, 1], StructuralError, "mi series frames must be strictly increasing"),
        ([3, 4], [1, math.inf], DomainError, "rho series contains non-finite values"),
        ([9, 10], [1, 1], StructuralError, "series frames fall outside the pair's common run"),  # frames 0-9
    ):
        with pytest.raises(error) as err:
            accumulate_aim(pair, series(frames, [1] * len(frames)), series(frames, rho), delta=0.98)
        assert str(err.value) == message
    with pytest.raises(ConfigError):
        accumulate_aim(pair, series([3], [1.0]), series([3], [1.0]), delta=0.0)
    with pytest.raises(ConfigError):
        accumulate_aim(pair, series([3], [1.0]), series([3], [1.0]), delta=1.5)


# --- extract_interactions ----------------------------------------------------------


def test_extract_disjoint_ranges() -> None:
    a = straight_line(50, track_id=1)
    b = straight_line(50, track_id=2, start_frame=100)
    assert extract_interactions([a, b], n_window=30) == []


def test_extract_directed_pair_with_buffer() -> None:
    a = straight_line(100, track_id=1)
    b = straight_line(100, track_id=2, origin=(0.0, 5.0))
    pairs = extract_interactions([a, b], n_window=30)
    assert len(pairs) == 2
    assert {(p.agent_i.track_id, p.agent_j.track_id) for p in pairs} == {(1, 2), (2, 1)}
    for p in pairs:
        assert int(p.frames[p.n_window]) == 30  # the first measured frame
        assert p.first_frame == 0
        assert p.last_frame == 99


def test_extract_overlap_too_short() -> None:
    a = straight_line(100, track_id=1)
    b = straight_line(100, track_id=2, start_frame=70)
    # overlap of exactly 30 frames cannot host a 30-frame buffer plus a sample
    assert extract_interactions([a, b], n_window=30) == []
    assert len(extract_interactions([a, b], n_window=29)) == 2


def test_extract_three_way() -> None:
    trajs = [straight_line(100, track_id=k, origin=(0.0, float(k))) for k in range(3)]
    pairs = extract_interactions(trajs, n_window=30)
    assert len(pairs) == 6


def test_extract_deterministic_order() -> None:
    trajs = [straight_line(100, track_id=k) for k in (5, 1, 3)]
    pairs = extract_interactions(trajs, n_window=10)
    ids = [(p.agent_i.track_id, p.agent_j.track_id) for p in pairs]
    assert ids == [(1, 3), (3, 1), (1, 5), (5, 1), (3, 5), (5, 3)]


def longest_uniform_run_oracle(frames: np.ndarray) -> np.ndarray:
    """The loop that found the longest constant-spacing run (earliest wins ties)."""
    if frames.size <= 2:
        return frames
    diffs = np.diff(frames)
    best_start, best_stop = 0, 1  # diff-index range of the best run
    start = 0
    for k in range(1, diffs.size + 1):
        if k == diffs.size or diffs[k] != diffs[start]:
            if k - start > best_stop - best_start:
                best_start, best_stop = start, k
            start = k
    return frames[best_start : best_stop + 1]


def pairs_oracle(trajs, n_window: int, offset: int | None = None) -> list:
    """Extraction without interval pruning: every pair's frames are intersected."""
    offset = n_window if offset is None else offset
    ordered = sorted(trajs, key=lambda t: (t.source.key(), t.track_id, t.segment))
    found = []
    for ta, tb in combinations(ordered, 2):
        run = longest_uniform_run_oracle(np.intersect1d(ta.frames(), tb.frames()))
        if run.size >= offset + 1:
            found.append((ta.uid, tb.uid, run.tolist()))
    return found


def pair_keys(pairs) -> list:
    forward = pairs[::2]
    assert [(p.agent_j.uid, p.agent_i.uid) for p in forward] == [
        (p.agent_i.uid, p.agent_j.uid) for p in pairs[1::2]
    ]
    return [(p.agent_i.uid, p.agent_j.uid, p.frames.tolist()) for p in forward]


def test_extract_skips_intersection_when_intervals_are_too_short(monkeypatch) -> None:
    trajs = [
        straight_line(20, track_id=1),  # frames 0-19
        straight_line(20, track_id=2, start_frame=5, origin=(0.0, 5.0)),  # 5-24
        straight_line(20, track_id=3, start_frame=100),  # 100-119
        straight_line(23, track_id=4, start_frame=18, origin=(0.0, 9.0)),  # 18-40
    ]
    expected = pairs_oracle(trajs, n_window=5)
    calls = []
    run_rows = aim._run_rows
    monkeypatch.setattr(aim, "_run_rows", lambda *args: calls.append(1) or run_rows(*args))
    pairs = extract_interactions(trajs, n_window=5)
    # only (1, 2) and (2, 4) overlap by the 6 frames a 5-frame window and one sample need
    assert len(calls) == 2
    assert pair_keys(pairs) == expected == [
        ("1", "2", list(range(5, 20))),
        ("2", "4", list(range(18, 25))),
    ]


track_spans = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 40), st.sampled_from((1, 2, 3))),
    min_size=2,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(track_spans, st.integers(1, 11))
def test_extract_matches_unpruned_oracle(spans, n_window) -> None:
    trajs = [
        straight_line(length, track_id=k, start_frame=start, frame_step=step, origin=(0.0, k))
        for k, (start, length, step) in enumerate(spans)
    ]
    pairs = extract_interactions(trajs, n_window=n_window)
    assert pair_keys(pairs) == pairs_oracle(trajs, n_window)


def traj_with_frames(frames, track_id: int) -> Trajectory:
    """A track on the given frames, with coordinates unique to the track and frame."""
    frames = np.asarray(frames, dtype=np.int64)
    coords = [(float(f) + 0.25 * track_id, 1000.0 * track_id - f) for f in frames.tolist()]
    traj = make_traj(coords, track_id=track_id)
    traj.points["frame"] = frames
    return traj


def full_oracle(trajs, n_window: int, offset: int) -> list:
    """Every pair's common run and coordinates, from `np.intersect1d` and the old loop."""
    ordered = sorted(trajs, key=lambda t: (t.source.key(), t.track_id, t.segment))
    found = []
    for ta, tb in combinations(ordered, 2):
        fa, fb = ta.frames(), tb.frames()
        run = longest_uniform_run_oracle(np.intersect1d(fa, fb))
        if run.size >= offset + 1:
            xa = ta.xy()[np.searchsorted(fa, run)]
            xb = tb.xy()[np.searchsorted(fb, run)]
            found.append((ta.uid, tb.uid, run.tolist(), xa.tolist(), xb.tolist()))
    return found


def extracted(pairs) -> list:
    pair_keys(pairs)  # directions alternate
    for forward, backward in zip(pairs[::2], pairs[1::2]):
        assert backward.frames is forward.frames
        assert backward.xi is forward.xj and backward.xj is forward.xi
    return [
        (p.agent_i.uid, p.agent_j.uid, p.frames.tolist(), p.xi.tolist(), p.xj.tolist())
        for p in pairs[::2]
    ]


# One track: a start frame, then steps; gaps, spacing changes and equal-length
# runs all come from the steps.
track_steps = st.tuples(
    st.integers(0, 12),
    st.lists(st.sampled_from((1, 1, 1, 2, 2, 3, 5)), min_size=0, max_size=14),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(track_steps, min_size=2, max_size=6), st.integers(1, 5))
def test_extract_with_gaps_matches_the_intersect_oracle(tracks, n_window) -> None:
    trajs = [
        traj_with_frames(start + np.cumsum([0, *steps]), track_id=k)
        for k, (start, steps) in enumerate(tracks)
    ]
    pairs = extract_interactions(trajs, n_window=n_window)
    assert extracted(pairs) == full_oracle(trajs, n_window, n_window)


@pytest.mark.parametrize(
    "frames_a, frames_b, run",
    [
        # common 0 1 2 4 6: runs 0-2 and 2-6 both span two steps; the earliest wins
        ([0, 1, 2, 4, 6], [0, 1, 2, 3, 4, 5, 6], [0, 1, 2]),
        ([0, 2, 4, 5, 6], list(range(8)), [0, 2, 4]),
        # a gap-free track against one with a gap: the slice would hold frame 3
        ([0, 1, 2, 4, 5, 6, 7], list(range(9)), [4, 5, 6, 7]),
        (list(range(9)), [0, 1, 2, 4, 5, 6, 7], [4, 5, 6, 7]),
        # overlaps of one and two frames
        ([0, 1, 2], [2, 3, 4], None),
        ([0, 1, 2], [1, 2, 3], [1, 2]),
        ([0, 3, 6], [3, 6, 9], [3, 6]),
    ],
)
def test_extract_picks_the_earliest_longest_common_run(frames_a, frames_b, run) -> None:
    trajs = [traj_with_frames(frames_a, 1), traj_with_frames(frames_b, 2)]
    pairs = extract_interactions(trajs, n_window=1)
    assert extracted(pairs) == full_oracle(trajs, 1, 1)
    assert [p.frames.tolist() for p in pairs[:1]] == ([run] if run else [])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=0, max_size=25, unique=True))
def test_uniform_run_matches_the_loop(frames) -> None:
    frames = np.array(sorted(frames), dtype=np.int64)
    assert frames[aim._uniform_run(frames)].tolist() == longest_uniform_run_oracle(frames).tolist()


# --- end-to-end measurement ----------------------------------------------------------


def crossing_pair(n: int = 160, n_window: int = 20) -> InteractionPair:
    # two walkers crossing near the middle of a 200 px corridor, with small
    # deterministic wiggle so the streams are not perfectly dependent
    rng = np.random.default_rng(40)
    xi = [(float(i), 50.0 + float(rng.uniform(-2, 2))) for i in range(n)]
    xj = [(float(n - 1 - i), 52.0 + float(rng.uniform(-2, 2))) for i in range(n)]
    return pair_from(xi, xj, n_window)


def test_measure_interaction_series_shape() -> None:
    pair = crossing_pair()
    out = measure_interaction(pair, delta=0.98, rho_config=RhoConfig())
    assert isinstance(out, MeasureSeries)
    assert out.frames[0] == int(pair.frames[pair.n_window])
    assert out.frames[-1] == pair.last_frame
    assert len(out.frames) == len(out.mi) == len(out.rho) == len(out.aim)
    assert np.isfinite(out.mi).all() and (out.mi >= 0).all()
    assert np.isfinite(out.rho).all() and (out.rho >= 0).all()
    assert (out.aim >= 0).all()


def test_measure_direction_changes_h_only() -> None:
    pair_fwd = crossing_pair()
    pairs = extract_interactions([pair_fwd.agent_i, pair_fwd.agent_j], n_window=20)
    fwd, back = pairs
    cfg_no_h = RhoConfig(use_h=False)
    a = measure_interaction(fwd, rho_config=cfg_no_h)
    b = measure_interaction(back, rho_config=cfg_no_h)
    np.testing.assert_array_equal(a.rho, b.rho)
    np.testing.assert_array_equal(a.mi, b.mi)

    with_h_a = measure_interaction(fwd, rho_config=RhoConfig())
    with_h_b = measure_interaction(back, rho_config=RhoConfig())
    assert not np.array_equal(with_h_a.rho, with_h_b.rho)


def test_sweep_delta_dominance_and_count() -> None:
    pair = crossing_pair()
    outs = sweep(pair, delta_values=[1.0, 0.98, 0.95], n_values=[20])
    assert len(outs) == 3
    by_delta = {s.delta: s for s in outs}
    full = by_delta[1.0].aim
    for delta in (0.98, 0.95):
        assert (by_delta[delta].aim <= full + 1e-12).all()


def test_sweep_n_smoothing() -> None:
    pair = crossing_pair(n=260, n_window=5)
    outs = sweep(pair, delta_values=[0.98], n_values=[5, 30], mi_config=MIConfig(n_min=6))
    tv = {}
    for s in outs:
        tv[s.n_window] = float(np.abs(np.diff(s.rho)).mean())
    assert tv[30] < tv[5]


def test_sweep_empty_lists() -> None:
    pair = crossing_pair()
    assert sweep(pair, delta_values=[], n_values=[20]) == []
    assert sweep(pair, delta_values=[0.98], n_values=[]) == []


def test_sweep_n_too_long_for_pair() -> None:
    pair = crossing_pair(n=60, n_window=5)
    with pytest.raises(InsufficientDataError):
        sweep(pair, delta_values=[0.98], n_values=[500])


@pytest.mark.parametrize("n", [2.5, True, 5.0])
def test_sweep_n_window_must_be_an_integer(n) -> None:
    pair = crossing_pair(n=60, n_window=5)
    with pytest.raises(ConfigError, match=f"n_window must be an integer, got {n!r}"):
        sweep(pair, delta_values=[0.98], n_values=[n])


@pytest.mark.parametrize("delta", [None, "0.9", True], ids=repr)
def test_sweep_delta_must_be_a_number(delta) -> None:
    pair = crossing_pair(n=40, n_window=5)
    with pytest.raises(ConfigError) as err:
        sweep(pair, delta_values=[delta], n_values=[5], mi_config=MIConfig(n_min=1))
    assert str(err.value) == f"delta must be a number, got {delta!r}"


def test_extract_n_window_must_be_an_integer() -> None:
    trajs = [straight_line(100, track_id=k, origin=(0.0, float(k))) for k in range(2)]
    with pytest.raises(ConfigError, match="n_window must be an integer, got 2.5"):
        extract_interactions(trajs, n_window=2.5)


def test_swept_n_windows_equal_one_sweep_each() -> None:
    # the dependence is computed once, at the smallest n_window, and shared
    pair = crossing_pair(n=120, n_window=5)
    estimator = MIConfig(n_min=6)
    together = sweep(pair, [1.0, 0.9], [30, 5, 12], mi_config=estimator, both_directions=True)
    alone = [s for n in (30, 5, 12) for s in sweep(pair, [1.0, 0.9], [n], mi_config=estimator, both_directions=True)]
    assert len(together) == len(alone) == 12
    for a, b in zip(together, alone):
        assert (a.n_window, a.delta, a.pair.key) == (b.n_window, b.delta, b.pair.key)
        for name in ("frames", "mi", "rho", "aim"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()


def test_fit_normalizers() -> None:
    pair = crossing_pair()
    fitted = fit_normalizers([pair])
    assert fitted.v0 > 0
    assert fitted.a0 > 0
    assert fitted.sigma_d == RhoConfig().sigma_d  # fitted per video by the caller
    kins = [compute_kinematics(pair, int(t)) for t in pair.frames[20:]]
    assert fitted.v0 == float(np.median([k.v for k in kins]))
    assert fitted.a0 == float(np.median([k.a for k in kins]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-1e300, 1e300),
            st.floats(-1e3, 1e3).map(lambda x: round(x, 1)),
            st.sampled_from([0.0, -0.0, 1.0, 2.5]),  # ties
        ),
        min_size=1,
        max_size=500,
    )
)
def test_the_fit_median_is_numpys(values) -> None:
    array = np.array(values, dtype=np.float64)
    # equal values, so equal bits but for the sign of a zero, which the fit refuses either way
    assert aim._median(array) == float(np.median(array))


# --- upper bounds for the ranking -------------------------------------------------------


def fold_bounds(
    pair: InteractionPair, delta: float, cfg: RhoConfig, mi_config: MIConfig | None = None
) -> tuple[float, float]:
    """The bounds as the measurement's fold computed them: the recurrence run on
    rho * mi_prefix_bound in each direction, its final value."""
    n = pair.n_window
    b = mi_prefix_bound(np.stack([pair.xi, pair.xj], axis=1), range(n + 1, len(pair.frames) + 1), config=mi_config)
    forward, backward = (
        aim._recurrence(aim._rho_series(pair.kinematics, aim._headings(d), cfg) * b, delta)[-1]
        for d in (pair, pair.reversed())
    )
    return float(forward), float(backward)


def assert_within_the_margin(bounds, folded, measured_frames: int) -> None:
    """Each bound is at least the fold's and above it by at most the margins final_bounds adds."""
    slack = 4 * measured_frames * math.ulp(0.0)
    for bound, fold in zip(bounds, folded):
        assert fold <= bound <= fold * (1.0 + 2 * BOUND_MARGIN) + 2 * slack


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(2, 200),
    n_window=st.integers(1, 6),
    n_min=st.integers(1, 7),
    # at 0.001, delta^(T-1) underflows on the longer pairs
    delta=st.sampled_from((1.0, 0.98, 0.5, 0.013, 0.001)),
    alpha=st.sampled_from((0.0, 0.3, 2.0)),
    flags=st.tuples(*[st.booleans()] * 4),
    bandwidths=st.one_of(st.none(), st.lists(st.floats(0.5, 60.0), min_size=1, max_size=3)),
    parked=st.booleans(),
)
def test_final_bounds_cover_the_measured_finals(
    seed, length, n_window, n_min, delta, alpha, flags, bandwidths, parked
) -> None:
    length = max(length, n_window + 1, n_min)
    rng = np.random.default_rng(seed)
    xi = np.round(np.cumsum(rng.normal(0, 4, (length, 2)), axis=0), 1)
    # a parked agent j occupies one cell, so the estimate is 0 and the bound is not
    xj = np.full_like(xi, 7.0) if parked else xi + np.cumsum(rng.normal(0, 3, (length, 2)), axis=0)
    pair = pair_from(xi.tolist(), xj.tolist(), n_window)
    use_v, use_d, use_h, use_a = flags
    cfg = RhoConfig(alpha=alpha, v0=2.0, sigma_d=40.0, a0=0.5, use_v=use_v, use_d=use_d, use_h=use_h, use_a=use_a)
    options = dict(bandwidths=bandwidths or aim.DEFAULT_BANDWIDTHS, n_min=max(1, min(n_min, n_window + 1)))
    if bandwidths:
        raw = rng.uniform(0.1, 1.0, len(bandwidths))
        options["weights"] = (raw / raw.sum()).tolist()
    estimator = MIConfig(**options)
    forward, backward = sweep(pair, [delta], [n_window], rho_config=cfg, mi_config=estimator, both_directions=True)
    bounds = final_bounds(pair, delta=delta, rho_config=cfg, mi_config=estimator)
    assert bounds[0] >= forward.final and bounds[1] >= backward.final
    assert min(bounds) >= 0.0
    assert_within_the_margin(bounds, fold_bounds(pair, delta, cfg, estimator), length - n_window)


@pytest.mark.parametrize("delta", [1.0, 0.98, 0.001])
@pytest.mark.parametrize("sigma_d", [30.0, 0.135])
def test_final_bounds_on_a_long_pair_agree_with_the_fold(delta, sigma_d) -> None:
    # side by side, 100 px apart: at sigma_d 0.135, exp(-d / sigma_d) is about
    # 4e-322, so every term of the sum and of the recurrence is subnormal
    rng = np.random.default_rng(41)
    xi = np.column_stack([np.arange(6_000.0) + rng.uniform(-0.5, 0.5, 6_000), np.full(6_000, 50.0)])
    pair = pair_from(xi.tolist(), (xi + [0.0, 100.0]).tolist(), 20)
    cfg = RhoConfig(sigma_d=sigma_d)
    bounds = final_bounds(pair, delta=delta, rho_config=cfg)
    assert_within_the_margin(bounds, fold_bounds(pair, delta, cfg), 6_000 - 20)
    (measured,) = sweep(pair, [delta], [20], rho_config=cfg)
    assert 0.0 < measured.final <= bounds[0]


def test_final_bounds_cover_terms_whose_weight_underflows() -> None:
    # close for two measured frames, then a million px apart, so exp(-d) is 0:
    # only the first two terms count, weighted by 0.001**109 and 0.001**108,
    # which underflow to 0 where the recurrence still carries 7e-319
    xi = [(3.0, 0.0), (2.0, 0.0), (1.0, 0.0)] + [(1e6 + k, 0.0) for k in range(108)]
    pair = pair_from(xi, [(0.0, 0.0)] * len(xi), 1)
    cfg = RhoConfig(alpha=1e6, sigma_d=1.0)
    folded = fold_bounds(pair, 0.001, cfg, MIConfig(n_min=1))
    assert min(folded) > 0.0
    bounds = final_bounds(pair, delta=0.001, rho_config=cfg, mi_config=MIConfig(n_min=1))
    assert bounds[0] >= folded[0] and bounds[1] >= folded[1]


@pytest.mark.parametrize(
    "kwargs, error",
    [
        (dict(n_min=7), InsufficientDataError),
        (dict(delta=0.0), ConfigError),
        (dict(weights=[1.0]), ConfigError),
    ],
)
def test_final_bounds_raise_as_the_measurement_does(kwargs, error) -> None:
    pair = crossing_pair(n=40, n_window=5)
    estimator = {k: v for k, v in kwargs.items() if k != "delta"}
    with pytest.raises(error) as measured:
        sweep(pair, [kwargs.get("delta", 0.98)], [5], mi_config=MIConfig(**estimator))
    with pytest.raises(error) as bounded:
        final_bounds(pair, delta=kwargs.get("delta", 0.98), mi_config=MIConfig(**estimator))
    assert str(bounded.value) == str(measured.value)
