"""Grid-count dependence estimator with incremental updates.

Dependence between two coordinate streams is scored as the plug-in value of

    MI = sum over occupied joint cells of (N_ij/n) * g(N_ij * n / (N_i * M_j))

with g(t) = (t-1)^2 / (2(t+1)), averaged over an ensemble of quantization
bandwidths. Cells are integer grid boxes (floor division by the bandwidth),
so counting is O(bandwidths) per sample, with no pairwise scans. The hashed,
bandwidth-ensemble counting follows EDGE (Noshad, Zeng & Hero, "Scalable
Mutual Information Estimation using Dependence Graphs", ICASSP 2019).

Two ways to count share one estimate: `HashMIState` pushes one sample at a
time into hash maps, and `mi_prefix_series` codes a whole stream's cells as
integers numbered by first occurrence and counts into arrays indexed by
those codes, so count memory grows with the occupied cells, not with the
stream length, and each prefix's terms cover only the cells occupied by
then. Both build the per-cell terms with the same numpy expression and sum
them with math.fsum, which returns the correctly rounded sum regardless of
order. That makes estimates bit-for-bit reproducible, exactly symmetric in
(x, y), and exactly equal between a prefix of the array path and a fresh
`HashMIState` recount. The symmetry is why `aim` computes one series per
unordered pair and shares it between the two directions.

`mi_prefix_bound` gives a cheap upper bound on every prefix estimate from
the occupied marginal cells alone (no joint counts), so a caller ranking
many pairs can skip the ones that cannot win.

`HashMIState` and both prefix functions check settings with one function
(`types.checked_mi_settings`, which the config loader uses too) and
coordinates with another: numbers (else StructuralError) and finite (DomainError).
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .types import (
    DEFAULT_BANDWIDTHS, DEFAULT_N_MIN, ConfigError, DomainError, InsufficientDataError,
    StructuralError, checked_mi_settings,
)

# Prefix counts are built for a block of eval points at once; this caps a
# block's count matrices at that many cells, whatever the stream length.
_BLOCK_CELLS = 1 << 12
# Relative margin added to `mi_prefix_bound`; it dwarfs the few-ulp rounding
# of the estimate and of the bound (see there).
BOUND_MARGIN = 1e-9

Coord = float | Sequence[float]


def g_divergence(t: float) -> float:
    """g(t) = (t-1)^2 / (2(t+1)) for t >= 0; zero only at t = 1."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"g is defined for finite t >= 0, got {t!r}")
    return (t - 1.0) ** 2 / (2.0 * (t + 1.0))


def _cell_terms(nij: np.ndarray, nx: np.ndarray, ny: np.ndarray, n) -> np.ndarray:
    """(nij/n) * g(nij*n / (nx*ny)) per joint cell; an empty cell (nij = 0) gives 0.

    Counts are int64, so both products are exact and the ratio is the
    correctly rounded quotient of two integers below 2**53.
    """
    ratio = (nij * n) / np.maximum(nx * ny, 1)
    return (nij / n) * ((ratio - 1.0) ** 2 / (2.0 * (ratio + 1.0)))


def _ensemble(weights: Sequence[float], band_sums: Iterable[float]) -> float:
    """Weighted sum of the per-bandwidth sums of cell terms."""
    return math.fsum(w * total for w, total in zip(weights, band_sums))


class HashMIState:
    """Count tables for one pair of streams, one table set per bandwidth."""

    def __init__(
        self,
        bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS,
        weights: Sequence[float] | None = None,
        n_min: int = DEFAULT_N_MIN,
    ):
        self.bandwidths, self.weights, self.n_min = checked_mi_settings(bandwidths, weights, n_min)
        self.n = 0
        self.x_counts: list[Counter] = [Counter() for _ in self.bandwidths]
        self.y_counts: list[Counter] = [Counter() for _ in self.bandwidths]
        self.joint_counts: list[Counter] = [Counter() for _ in self.bandwidths]

    def push(self, x: Coord, y: Coord) -> None:
        """Count one time-aligned sample (x, y) into every bandwidth's tables."""
        xc = _stream([x], "x")[0].tolist()
        yc = _stream([y], "y")[0].tolist()
        for k, eps in enumerate(self.bandwidths):
            xcell = tuple(math.floor(c / eps) for c in xc)
            ycell = tuple(math.floor(c / eps) for c in yc)
            self.x_counts[k][xcell] += 1
            self.y_counts[k][ycell] += 1
            self.joint_counts[k][(xcell, ycell)] += 1
        self.n += 1

    def estimate(self) -> float:
        """Weighted ensemble estimate over all bandwidths; never negative."""
        if self.n < self.n_min:
            raise InsufficientDataError(
                f"estimate needs at least {self.n_min} samples, have {self.n}"
            )
        band_sums = []
        for x_counts, y_counts, joint in zip(self.x_counts, self.y_counts, self.joint_counts):
            size = len(joint)
            nij = np.fromiter(joint.values(), np.int64, size)
            nx = np.fromiter((x_counts[xcell] for xcell, _ in joint), np.int64, size)
            ny = np.fromiter((y_counts[ycell] for _, ycell in joint), np.int64, size)
            band_sums.append(math.fsum(_cell_terms(nij, nx, ny, self.n).tolist()))
        return _ensemble(self.weights, band_sums)


def _first_seen(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `columns` in sorted order, and where each distinct row starts in it."""
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    return order, new


def _first_seen_codes(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Codes 0..k-1 for the distinct rows of `columns`, numbered in order of
    first occurrence, and the row where each code first occurs (increasing)."""
    order, new = _first_seen(columns)
    # lexsort is stable, so each run of equal rows starts at its first occurrence
    first = order[new]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = rank[np.cumsum(new) - 1]
    return codes, np.sort(first)


def _stream(values, what: str) -> np.ndarray:
    """One stream as an (m, d) float array, checked once for finiteness."""
    try:
        # a "same_kind" cast refuses None, text and other objects
        stream = np.asarray(values).astype(np.float64, casting="same_kind", copy=False)
    except (TypeError, ValueError):
        raise StructuralError(
            f"{what} samples must be numbers or coordinate vectors of one length"
        ) from None
    stream = stream.reshape(len(stream), -1)
    if stream.shape[1] == 0 or not np.isfinite(stream).all():
        raise DomainError(f"{what} coordinates must be finite numbers")
    return stream


def _band_prefix_sums(x_cells: np.ndarray, y_cells: np.ndarray, points: np.ndarray) -> list[float]:
    """fsum of one bandwidth's cell terms after each prefix length in `points`.

    Cells are numbered by first occurrence, so the cells occupied after t
    samples are the first k codes of each table, and a prefix's terms cover
    only those (an empty joint cell's term is 0 and would not change the sum).
    """
    x_codes, x_first = _first_seen_codes(list(x_cells.T))
    y_codes, y_first = _first_seen_codes(list(y_cells.T))
    joint_codes, joint_first = _first_seen_codes([x_codes, y_codes])
    jx = x_codes[joint_first]
    jy = y_codes[joint_first]
    tables = ((x_codes, x_first), (y_codes, y_first), (joint_codes, joint_first))
    counts = [np.zeros(len(first), dtype=np.int64) for _, first in tables]
    block = max(1, _BLOCK_CELLS // len(joint_first))
    sums: list[float] = []
    counted = 0
    for start in range(0, len(points), block):
        ts = points[start : start + block]
        t = int(ts[-1])
        # sample k first counts toward the first prefix longer than k
        rows = np.searchsorted(ts, np.arange(counted, t), side="right")
        grown = []
        for (codes, first), count in zip(tables, counts):
            k = int(np.searchsorted(first, t))
            increments = np.bincount(rows * k + codes[counted:t], minlength=len(ts) * k)
            grown.append(count[:k] + np.cumsum(increments.reshape(len(ts), k), axis=0))
            count[:k] = grown[-1][-1]
        counted = t
        x_grown, y_grown, joint_grown = grown
        k = joint_grown.shape[1]
        n = ts[:, None]
        terms = _cell_terms(joint_grown, x_grown[:, jx[:k]], y_grown[:, jy[:k]], n)
        sums += [math.fsum(row) for row in terms.tolist()]
    return sums


def _prefix_input(
    pairs, eval_points: Sequence[int], bandwidths, weights, n_min: int
) -> tuple[tuple[float, ...], tuple[float, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Checked bandwidths, weights, eval points and (x, y) streams cut to the last point.

    Both prefix functions take the same arguments and raise the same errors
    through this. With no eval points, the streams are empty and unchecked.
    """
    bandwidths, weights, n_min = checked_mi_settings(bandwidths, weights, n_min)
    try:
        points = np.asarray(eval_points).reshape(-1)
    except ValueError:  # a ragged nesting such as [[10], [12, 13]]
        raise ConfigError(f"eval points must be integers, got {eval_points!r}") from None
    if not points.size:
        return bandwidths, weights, points, np.zeros((0, 1)), np.zeros((0, 1))
    if not np.issubdtype(points.dtype, np.integer):  # bools and floats too
        raise ConfigError(f"eval points must be integers, got {points.tolist()!r}")
    if (np.diff(points) <= 0).any():
        raise ConfigError(f"eval points must be strictly increasing, got {points.tolist()!r}")
    if points[0] < n_min:
        raise InsufficientDataError(
            f"first eval point {points[0]} is below the {n_min}-sample minimum"
        )
    samples = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    if points[-1] > len(samples):
        beyond = points[points > len(samples)][0]
        raise ConfigError(f"eval point {beyond} exceeds the available {len(samples)} samples")
    samples = samples[: points[-1]]
    if isinstance(samples, np.ndarray):
        if samples.ndim < 2 or samples.shape[1] != 2:
            raise StructuralError(f"samples must be (x, y) pairs, got shape {samples.shape}")
        x_values, y_values = samples[:, 0], samples[:, 1]
    else:
        try:
            x_values, y_values = zip(*samples)
        except (TypeError, ValueError):
            raise StructuralError("samples must be (x, y) pairs") from None
    return bandwidths, weights, points, _stream(x_values, "x"), _stream(y_values, "y")


def mi_prefix_series(
    pairs: np.ndarray | Sequence[tuple[Coord, Coord]] | Iterable[tuple[Coord, Coord]],
    eval_points: Sequence[int],
    bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS,
    weights: Sequence[float] | None = None,
    n_min: int = DEFAULT_N_MIN,
) -> list[tuple[int, float]]:
    """Estimate after the first t samples, for each requested prefix length t.

    `pairs` holds time-aligned (x, y) samples: any sequence of pairs, or an
    array of shape (L, 2) or (L, 2, d). Each table's cells are coded once
    for the whole stream, and the counts at a block of prefix lengths come
    from cumulative sums of the new samples' cells, so every value is
    identical to re-counting that prefix from scratch with HashMIState.
    """
    bandwidths, weights, points, x, y = _prefix_input(pairs, eval_points, bandwidths, weights, n_min)
    if not points.size:
        return []
    band_sums = [
        _band_prefix_sums(np.floor(x / eps), np.floor(y / eps), points)
        for eps in bandwidths
    ]
    return [
        (t, _ensemble(weights, sums))
        for t, sums in zip(points.tolist(), zip(*band_sums))
    ]


def mi_prefix_bound(
    pairs: np.ndarray | Sequence[tuple[Coord, Coord]] | Iterable[tuple[Coord, Coord]],
    eval_points: Sequence[int],
    bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS,
    weights: Sequence[float] | None = None,
    n_min: int = DEFAULT_N_MIN,
) -> np.ndarray:
    """An upper bound on each value `mi_prefix_series` returns for the same arguments.

    Per bandwidth, the estimate after t samples is below (min(Kx, Ky) + 1) / 2,
    where Kx and Ky count the x and y cells occupied by then: each cell term
    is (nij/n) * g(r) with r = nij*n / (nx*ny), g(r) < (r + 1) / 2 for r > 0,
    so a term is below nij**2 / (2*nx*ny) + nij / (2n); these sum to at most
    (Kx + 1) / 2 because nij <= ny and the nij of one x cell sum to nx, and
    likewise to (Ky + 1) / 2. The bound is the weighted sum of the per-band
    values, times 1 + BOUND_MARGIN. It needs only the first row of each
    marginal cell, not the joint counts.

    Computed values keep the order. Counts and their products are exact
    integers, so each computed cell term is off by a few ulps of
    nij**2 / (nx*ny) + nij / n, the quantity summed above; a band's fsum is
    then within a few ulps of (min(Kx, Ky) + 1) / 2 of its exact value, and
    the computed bound within a few ulps of its own. BOUND_MARGIN is far
    larger than both, so every computed estimate is at most its computed
    bound. Arguments are checked, and raise, exactly as in `mi_prefix_series`.
    """
    bandwidths, weights, points, x, y = _prefix_input(pairs, eval_points, bandwidths, weights, n_min)
    total = np.zeros(len(points))
    for weight, eps in zip(weights, bandwidths):
        occupied = [
            # the cells seen in the first t samples are those first seen at a row below t
            np.searchsorted(np.sort(order[new]), points)
            for order, new in (_first_seen(list(np.floor(s / eps).T)) for s in (x, y))
        ]
        total += weight * ((np.minimum(*occupied) + 1) / 2)
    return total * (1.0 + BOUND_MARGIN)
