"""Whole-series kinematics, rho and MI against their one-frame references.

The array path computes every frame at once; `compute_kinematics`,
`compute_rho` and a fresh `HashMIState` recount are the references.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_traj
from trajscope import aim
from trajscope.aim import InteractionPair, RhoConfig, compute_kinematics, compute_rho
from trajscope.mi import HashMIState, mi_prefix_series

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
            one = compute_kinematics(direction, int(frame))
            assert (kin.v[k], kin.d[k], kin.a[k]) == (one.v, one.d, one.a)
            assert math.isclose(h[k], one.h, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(rho[k], compute_rho(one, cfg), rel_tol=1e-12, abs_tol=1e-15)


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
    state = HashMIState(bandwidths=bandwidths)
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
    series = mi_prefix_series(samples, points, bandwidths=bandwidths)
    assert [t for t, _ in series] == points
    for t, value in series:
        assert value == fresh_estimate(x, y, t, bandwidths)
    assert mi_prefix_series(swapped, points, bandwidths=bandwidths) == series
