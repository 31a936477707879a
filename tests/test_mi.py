from __future__ import annotations

import numpy as np
import pytest

from trajscope.mi import DEFAULT_BANDWIDTHS, HashMIState, g_divergence, mi_prefix_series
from trajscope.types import DomainError, InsufficientDataError


def state_for(xs, ys, **kwargs) -> HashMIState:
    st = HashMIState(**kwargs)
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
    st = HashMIState(bandwidths=[1.0])
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
    st = HashMIState(bandwidths=[8.0])
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
    st = HashMIState(bandwidths=[8.0])
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
        HashMIState(bandwidths=[])
    with pytest.raises(ConfigError):
        HashMIState(bandwidths=[-8.0])
    with pytest.raises(ConfigError):
        HashMIState(bandwidths=[8.0, 16.0], weights=[0.9, 0.2])


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
