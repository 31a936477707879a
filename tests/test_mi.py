from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajscope.mi import (
    BOUND_MARGIN,
    DEFAULT_BANDWIDTHS,
    HashMIState,
    g_divergence,
    mi_prefix_bound,
    mi_prefix_series,
)
from trajscope.types import ConfigError, DomainError, InsufficientDataError, MIConfig, StructuralError


def state_for(xs, ys, **kwargs) -> HashMIState:
    st = HashMIState(config=MIConfig(**kwargs))
    for x, y in zip(xs, ys):
        st.push(x, y)
    return st


# --- g ------------------------------------------------------------------------


def test_g_boundary_values() -> None:
    assert g_divergence(1.0) == 0.0
    assert g_divergence(0.0) == 0.5
    assert g_divergence(3.0) == 0.5
    assert g_divergence(2.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_g_negative_is_domain_error() -> None:
    with pytest.raises(DomainError):
        g_divergence(-0.1)


def test_g_nonnegative_and_zero_only_at_one() -> None:
    ts = np.linspace(0.0, 50.0, 700)
    vals = [g_divergence(float(t)) for t in ts]
    assert all(v >= 0 for v in vals)
    assert all(v > 0 for t, v in zip(ts, vals) if t != 1.0)


# --- push ----------------------------------------------------------------------


def test_push_counts() -> None:
    st = HashMIState(config=MIConfig(bandwidths=[1.0]))
    st.push(0.2, 0.7)
    assert st.n == 1
    assert list(st.joint_counts[0].values()) == [1]
    st.push(0.2, 0.7)
    assert st.n == 2
    assert list(st.joint_counts[0].values()) == [2]


def test_push_marginalization_invariant() -> None:
    rng = np.random.default_rng(3)
    st = HashMIState()
    for x, y in zip(rng.uniform(0, 500, 200), rng.uniform(0, 500, 200)):
        st.push(x, y)
    for k in range(len(DEFAULT_BANDWIDTHS)):
        assert sum(st.x_counts[k].values()) == st.n
        assert sum(st.y_counts[k].values()) == st.n
        assert sum(st.joint_counts[k].values()) == st.n


def test_push_accepts_vectors() -> None:
    st = HashMIState(config=MIConfig(bandwidths=[8.0]))
    st.push((3.0, 4.0), np.array([10.0, 20.0]))
    assert st.n == 1
    ((cell, count),) = st.joint_counts[0].items()
    assert count == 1
    assert cell == ((0, 0), (1, 2))


def test_push_rejects_non_finite() -> None:
    st = HashMIState()
    with pytest.raises(DomainError):
        st.push(float("nan"), 1.0)
    with pytest.raises(DomainError):
        st.push(1.0, (2.0, float("inf")))


def test_prefix_series_rejects_non_finite_stream() -> None:
    samples = np.zeros((20, 2, 2))
    samples[15, 1, 0] = np.inf
    with pytest.raises(DomainError, match="y"):
        mi_prefix_series(samples, [10, 20])
    samples[3, 0, 1] = np.nan
    with pytest.raises(DomainError, match="x"):
        mi_prefix_series(samples, [10, 20])


def test_negative_coordinates_quantize_consistently() -> None:
    st = HashMIState(config=MIConfig(bandwidths=[8.0]))
    st.push(-0.5, -8.0)
    ((cell, _),) = st.joint_counts[0].items()
    assert cell == ((-1,), (-1,))


# --- estimate: hand-checked values on bandwidth {1} -----------------------------


def test_estimate_uniform_grid_is_zero() -> None:
    st = state_for([0, 0, 1, 1], [0, 1, 0, 1], bandwidths=[1.0], n_min=4)
    assert st.estimate() == 0.0


def test_estimate_identity_four_samples() -> None:
    st = state_for([0, 0, 1, 1], [0, 0, 1, 1], bandwidths=[1.0], n_min=4)
    assert st.estimate() == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_estimate_skewed_four_samples() -> None:
    st = state_for([0, 0, 0, 1], [0, 1, 1, 1], bandwidths=[1.0], n_min=4)
    assert st.estimate() == pytest.approx(29.0 / 2142.0, rel=1e-12)


def test_estimate_constant_streams_is_zero() -> None:
    st = state_for([5.0] * 12, [9.0] * 12)
    assert st.estimate() == 0.0


def test_estimate_weighted_ensemble() -> None:
    xs = ys = [0, 0, 1, 1]
    only_fine = state_for(xs, ys, bandwidths=[1.0, 2.0], weights=[1.0, 0.0], n_min=4)
    assert only_fine.estimate() == pytest.approx(1.0 / 6.0, rel=1e-12)
    both = state_for(xs, ys, bandwidths=[1.0, 2.0], weights=[0.5, 0.5], n_min=4)
    # coarse band collapses everything into one cell -> contributes 0
    assert both.estimate() == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_estimate_nonnegative_on_random_data() -> None:
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(10, 400))
        st = state_for(rng.uniform(0, 900, n), rng.uniform(0, 900, n))
        assert st.estimate() >= 0.0


def test_estimate_requires_n_min() -> None:
    st = state_for(range(9), range(9))
    with pytest.raises(InsufficientDataError):
        st.estimate()
    st.push(9, 9)
    st.estimate()  # n == n_min is fine


def test_invalid_config() -> None:
    from trajscope.types import ConfigError

    with pytest.raises(ConfigError):
        HashMIState(config=MIConfig(bandwidths=[]))
    with pytest.raises(ConfigError):
        HashMIState(config=MIConfig(bandwidths=[-8.0]))
    with pytest.raises(ConfigError):
        HashMIState(config=MIConfig(bandwidths=[8.0, 16.0], weights=[0.9, 0.2]))


# --- invariances -----------------------------------------------------------------


def test_symmetry_exact() -> None:
    rng = np.random.default_rng(21)
    xs = rng.uniform(0, 700, 300)
    ys = xs * 0.5 + rng.normal(0, 30, 300)
    forward = state_for(xs, ys).estimate()
    backward = state_for(ys, xs).estimate()
    assert forward == backward  # bit-for-bit


def test_translation_by_common_multiple_is_exact() -> None:
    rng = np.random.default_rng(22)
    xs = rng.uniform(0, 700, 300)
    ys = rng.uniform(0, 700, 300)
    base = state_for(xs, ys).estimate()
    shifted = state_for(xs + 128.0, ys).estimate()  # 128 is a multiple of 8,16,32,64
    assert shifted == base


def test_arbitrary_translation_near_invariant_on_fixtures() -> None:
    # Moving the whole scene by an offset that is NOT grid-aligned may shuffle
    # samples across cell boundaries, but the estimate must stay close.
    rng = np.random.default_rng(23)
    xs = rng.uniform(0, 1000, 10_000)
    ys_ind = rng.uniform(0, 1000, 10_000)
    for ys in (ys_ind, xs.copy()):
        base = state_for(xs, ys).estimate()
        for shift in (3.7, 13.11, 777.77):
            shifted = state_for(xs + shift, ys + shift).estimate()
            assert shifted == pytest.approx(base, rel=0.10)


def test_growth_never_goes_negative() -> None:
    rng = np.random.default_rng(24)
    st = HashMIState()
    xs = rng.uniform(0, 500, 300)
    ys = np.concatenate([xs[:150], rng.uniform(0, 500, 150)])
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        st.push(x, y)
        if i >= 10:
            assert st.estimate() >= 0.0


# --- incremental vs batch ----------------------------------------------------------


def test_incremental_equals_batch_bit_for_bit() -> None:
    rng = np.random.default_rng(25)
    n = 1200
    xs = rng.uniform(0, 1000, n)
    ys = 0.7 * xs + rng.normal(0, 40, n)
    prefixes = sorted(set(rng.integers(10, n + 1, size=1000).tolist()))
    series = mi_prefix_series(list(zip(xs, ys)), prefixes)
    assert [t for t, _ in series] == prefixes
    for t, value in series:
        batch = state_for(xs[:t], ys[:t]).estimate()
        assert value == batch  # bit-for-bit


def test_prefix_series_identical_pairs_all_zero() -> None:
    pairs = [((4.0, 4.0), (9.0, 1.0))] * 40
    series = mi_prefix_series(pairs, [10, 20, 40])
    assert [v for _, v in series] == [0.0, 0.0, 0.0]


def test_prefix_series_validates_eval_points() -> None:
    from trajscope.types import ConfigError

    pairs = [(float(i), float(i)) for i in range(30)]
    with pytest.raises(InsufficientDataError):
        mi_prefix_series(pairs, [5])
    with pytest.raises(ConfigError):
        mi_prefix_series(pairs, [20, 15])


# --- upper bound ----------------------------------------------------------------------


def bound_oracle(pairs, points, bandwidths=DEFAULT_BANDWIDTHS, weights=None) -> list[float]:
    """(min(Kx, Ky) + 1) / 2 per band, weighted, with cells counted in Python sets."""
    weights = weights or [1.0 / len(bandwidths)] * len(bandwidths)
    bounds = []
    for t in points:
        total = 0.0
        for w, eps in zip(weights, bandwidths):
            occupied = [
                len({tuple(math.floor(c / eps) for c in np.atleast_1d(sample[side])) for sample in pairs[:t]})
                for side in (0, 1)
            ]
            total += w * ((min(occupied) + 1) / 2)
        bounds.append(total * (1.0 + BOUND_MARGIN))
    return bounds


def random_walk_pairs(seed: int, n: int, dims: int = 2) -> list:
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.normal(0, 6, (n, dims)), axis=0)
    ys = xs + np.cumsum(rng.normal(0, 9, (n, dims)), axis=0)
    return [(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


@pytest.mark.parametrize(
    "seed, dims, bandwidths, weights",
    [
        (31, 2, DEFAULT_BANDWIDTHS, None),
        (32, 1, (3.0, 50.0), [0.8, 0.2]),
        (33, 2, (5.0,), None),
    ],
)
def test_bound_counts_the_cells_occupied_by_each_prefix(seed, dims, bandwidths, weights) -> None:
    pairs = random_walk_pairs(seed, 300, dims)
    if dims == 1:
        pairs = [(x[0], y[0]) for x, y in pairs]
    points = list(range(4, 301, 3))
    bound = mi_prefix_bound(pairs, points, config=MIConfig(bandwidths, weights, n_min=4))
    assert bound.tolist() == bound_oracle(pairs, points, bandwidths, weights)


def test_bound_of_a_hand_counted_stream() -> None:
    # x cells 0, 0, 1, 2; y cells 5, 6, 6, 6 at bandwidth 1: min(Kx, Ky) = 1, 1, 2, 2
    pairs = [(0.5, 5.0), (0.2, 6.1), (1.5, 6.9), (2.0, 6.0)]
    bound = mi_prefix_bound(pairs, [1, 2, 3, 4], config=MIConfig(bandwidths=[1.0], n_min=1))
    assert bound.tolist() == [v * (1.0 + BOUND_MARGIN) for v in (1.0, 1.0, 1.5, 1.5)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(12, 120),
    st.lists(st.floats(0.5, 80.0), min_size=1, max_size=4),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.3, 3.0]),
)
def test_bound_is_at_least_every_prefix_estimate(seed, n, bandwidths, n_min, spread) -> None:
    rng = np.random.default_rng(seed)
    xs = np.round(np.cumsum(rng.normal(0, 5, (n, 2)), axis=0))
    ys = xs + rng.normal(0, spread, (n, 2))  # spread 0: identical streams
    raw = rng.uniform(0.1, 1.0, len(bandwidths))
    weights = (raw / raw.sum()).tolist()
    samples = np.stack([xs, ys], axis=1)
    points = range(n_min, n + 1)
    config = MIConfig(bandwidths, weights, n_min)
    estimates = [v for _, v in mi_prefix_series(samples, points, config=config)]
    bound = mi_prefix_bound(samples, points, config=config)
    assert (np.array(estimates) <= bound).all()
    # the bound also holds without its margin on these streams
    assert (np.array(estimates) < bound / (1.0 + BOUND_MARGIN)).all()


# settings every entry point rejects with a ConfigError (default: four bandwidths)
BAD_SETTINGS = [
    dict(bandwidths=[math.nan]),
    dict(bandwidths=[8.0, math.inf]),
    dict(bandwidths=[-math.inf]),
    dict(weights=[math.nan, 0.5, 0.25, 0.25]),
    dict(weights=[math.inf, 0.0, 0.0, 0.0]),
    dict(bandwidths=[8.0], weights=[math.nan]),
    dict(n_min=2.5),
    dict(n_min=math.nan),
    dict(n_min=True),
    dict(bandwidths=["8"]),
    dict(bandwidths=8),
    dict(bandwidths=[True]),
    dict(weights=["0.25"] * 4),
]


def test_bound_checks_its_arguments_as_the_series_does() -> None:
    pairs = [(float(i), float(i)) for i in range(30)]
    cases = [
        (dict(eval_points=[5]), InsufficientDataError),
        (dict(eval_points=[20, 15]), ConfigError),
        (dict(eval_points=[31]), ConfigError),
        (dict(eval_points=[20.7, 25.2]), ConfigError),
        (dict(eval_points=[[10], [12, 13]]), ConfigError),
        (dict(eval_points=[20], bandwidths=[0.0]), ConfigError),
        (dict(eval_points=[20], weights=[0.5, 0.4, 0.2, 0.0]), ConfigError),
        *[(dict(eval_points=[20], **bad), ConfigError) for bad in BAD_SETTINGS],
    ]
    for kwargs, error in cases:
        messages = []
        for fn in (mi_prefix_series, mi_prefix_bound):
            with pytest.raises(error) as err:
                estimator = {key: value for key, value in kwargs.items() if key != "eval_points"}
                fn(pairs, kwargs["eval_points"], config=MIConfig(**estimator))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    with pytest.raises(StructuralError):
        mi_prefix_bound(np.zeros((20, 3)), [20])
    with pytest.raises(DomainError):
        mi_prefix_bound([(math.inf, 0.0)] * 20, [20])
    assert mi_prefix_bound(pairs, []).tolist() == []


@pytest.mark.parametrize("bad", BAD_SETTINGS, ids=repr)
def test_state_checks_its_settings_as_the_prefix_functions_do(bad) -> None:
    with pytest.raises(ConfigError) as series_err:
        mi_prefix_series([(0.0, 0.0)] * 20, [20], config=MIConfig(**bad))
    with pytest.raises(ConfigError) as state_err:
        HashMIState(config=MIConfig(**bad))
    assert str(state_err.value) == str(series_err.value)


@pytest.mark.parametrize("value", ["abc", None, [1.0, None], {"x": 1.0}])
def test_push_rejects_a_sample_that_is_not_numbers(value) -> None:
    st = HashMIState()
    with pytest.raises(StructuralError, match="x samples must be numbers"):
        st.push(value, 1.0)
    with pytest.raises(StructuralError, match="y samples must be numbers"):
        st.push(1.0, value)
    assert st.n == 0


def test_settings_may_be_numpy_arrays() -> None:
    bandwidths, weights = np.array([8.0, 16.0]), np.array([0.25, 0.75])
    st = state_for(range(20), range(20), bandwidths=bandwidths, weights=weights)
    assert (st.bandwidths, st.weights) == ((8.0, 16.0), (0.25, 0.75))
    assert mi_prefix_series([(float(i), float(i)) for i in range(20)], [20], config=MIConfig(bandwidths, weights)) == [
        (20, st.estimate())
    ]
