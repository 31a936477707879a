"""Whole-series kinematics, rho and MI against their one-frame references.

The array path computes every frame at once. The references are a copy of
the per-step loops that `compute_kinematics` and `compute_rho` used to
carry (`kinematics_oracle`, `rho_oracle`) and a fresh `HashMIState`
recount. The public one-frame functions are now entry points to the array
path, so they must equal it exactly.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_traj
from trajscope import aim
from trajscope.aim import InteractionPair, Kinematics, RhoConfig, compute_kinematics, compute_rho
from trajscope.mi import HashMIState, mi_prefix_series
from trajscope.types import MIConfig

def kinematics_oracle(pair: InteractionPair, t: int) -> Kinematics:
    """The per-step loop `compute_kinematics` used before it called the array path."""
    n = pair.n_window
    it = pair.index_of(t)
    seg_i = pair.xi[it - n : it + 1]
    seg_j = pair.xj[it - n : it + 1]
    steps_i = np.diff(seg_i, axis=0)
    steps_j = np.diff(seg_j, axis=0)
    speeds_i = np.hypot(steps_i[:, 0], steps_i[:, 1])
    speeds_j = np.hypot(steps_j[:, 0], steps_j[:, 1])
    v = float((speeds_i.sum() + speeds_j.sum()) / n)

    gaps = seg_i[1:] - seg_j[1:]
    d = float(np.hypot(gaps[:, 0], gaps[:, 1]).mean())

    angles: list[float] = []
    for k in range(n):
        step = steps_i[k]
        bearing = seg_j[k] - seg_i[k]
        step_len = math.hypot(step[0], step[1])
        bearing_len = math.hypot(bearing[0], bearing[1])
        if step_len == 0.0 or bearing_len == 0.0:
            continue
        cross = step[0] * bearing[1] - step[1] * bearing[0]
        dot = step[0] * bearing[0] + step[1] * bearing[1]
        angles.append(math.atan2(abs(cross), dot))
    h = float(np.mean(angles)) if angles else 0.0

    if n >= 2:
        a = float(
            (np.abs(np.diff(speeds_i)).sum() + np.abs(np.diff(speeds_j)).sum())
            / (n - 1)
        )
    else:
        a = 0.0
    return Kinematics(v=v, d=d, h=h, a=a)


def rho_oracle(kin: Kinematics, cfg: RhoConfig) -> float:
    """The scalar formula `compute_rho` used before it called the array path."""
    v_term = 1.0
    if cfg.use_v:
        v_star = kin.v / (kin.v + cfg.v0)
        if cfg.use_a:
            v_star += kin.a / (kin.a + cfg.a0)
        v_term = cfg.alpha + v_star
    d_term = math.exp(-kin.d / cfg.sigma_d) if cfg.use_d else 1.0
    h_term = 1.0
    if cfg.use_h:
        h = min(max(kin.h, 0.0), math.pi)
        h_term = 1.0 + (1.0 - 2.0 * h / math.pi)
    return v_term * d_term * h_term


# small step values make stationary steps and coincident agents common
STEP = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]),
    st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def interaction_pairs(draw) -> InteractionPair:
    n = draw(st.sampled_from([1, 2, 30]))
    length = draw(st.integers(n + 1, n + 25))
    xi = np.cumsum(draw(arrays(np.float64, (length, 2), elements=STEP)), axis=0)
    xj = np.cumsum(draw(arrays(np.float64, (length, 2), elements=STEP)), axis=0)
    if draw(st.booleans()):
        xj += draw(st.sampled_from([0.0, 3.0, -40.0]))
    ti = make_traj(xi.tolist(), track_id=1)
    tj = make_traj(xj.tolist(), track_id=2)
    return InteractionPair(ti, tj, ti.frames(), xi, xj, n)


RHO_CONFIGS = st.builds(
    RhoConfig,
    alpha=st.floats(0.0, 2.0),
    v0=st.floats(0.05, 20.0),
    sigma_d=st.floats(1.0, 500.0),
    a0=st.floats(0.05, 5.0),
    use_v=st.booleans(),
    use_d=st.booleans(),
    use_h=st.booleans(),
    use_a=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(pair=interaction_pairs(), cfg=RHO_CONFIGS)
def test_array_kinematics_and_rho_match_one_frame_reference(pair: InteractionPair, cfg: RhoConfig) -> None:
    n = pair.n_window
    kin = pair.kinematics
    assert len(kin.v) == len(pair.frames) - n
    for direction in (pair, pair.reversed()):
        h = aim._headings(direction)
        rho = aim._rho_series(kin, h, cfg)
        for k, frame in enumerate(direction.frames[n:]):
            want = kinematics_oracle(direction, int(frame))
            assert (kin.v[k], kin.d[k], kin.a[k]) == (want.v, want.d, want.a)
            assert math.isclose(h[k], want.h, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(rho[k], rho_oracle(want, cfg), rel_tol=1e-12, abs_tol=1e-15)
            # the public one-frame functions are the array path, bit for bit
            one = compute_kinematics(direction, int(frame))
            assert one == Kinematics(v=kin.v[k], d=kin.d[k], h=h[k], a=kin.a[k])
            assert compute_rho(one, cfg) == rho[k]


COORD = st.one_of(
    st.floats(-300.0, 300.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, -8.0, -16.0, 8.0, -64.0, -0.5]),  # cell edges
)


@st.composite
def streams(draw) -> tuple[np.ndarray, list[int], tuple[float, ...]]:
    dims = draw(st.sampled_from([(1, 1), (2, 2), (1, 2)]))
    length = draw(st.integers(10, 60))
    x = draw(arrays(np.float64, (length, dims[0]), elements=COORD))
    y = draw(arrays(np.float64, (length, dims[1]), elements=COORD))
    if draw(st.booleans()):
        y[:, : dims[0]] = x + draw(st.sampled_from([0.0, -3.0, 64.0]))
    points = sorted(draw(st.sets(st.integers(10, length), min_size=1)))
    bandwidths = draw(st.sampled_from([(8.0, 16.0, 32.0, 64.0), (1.0,), (3.0, 5.0)]))
    return x, y, points, bandwidths


def fresh_estimate(x, y, t: int, bandwidths) -> float:
    state = HashMIState(config=MIConfig(bandwidths))
    for xs, ys in zip(x[:t], y[:t]):
        state.push(xs, ys)
    return state.estimate()


@settings(max_examples=100, deadline=None)
@given(case=streams())
def test_array_prefix_mi_equals_fresh_recount_bit_for_bit(case) -> None:
    x, y, points, bandwidths = case
    if x.shape[1] == y.shape[1]:
        samples = np.stack([x, y], axis=1)
        swapped = np.stack([y, x], axis=1)
    else:  # mixed dimensions only fit a sequence of pairs
        samples = list(zip(x, y))
        swapped = list(zip(y, x))
    series = mi_prefix_series(samples, points, config=MIConfig(bandwidths))
    assert [t for t, _ in series] == points
    for t, value in series:
        assert value == fresh_estimate(x, y, t, bandwidths)
    assert mi_prefix_series(swapped, points, config=MIConfig(bandwidths)) == series
