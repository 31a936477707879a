"""Directed pairwise interaction measure over co-present trajectory frames.

For a directed pair (I, J) the per-frame interaction score couples two
ingredients evaluated on the native-rate frames they share:

* a dependence estimate between the two coordinate streams, computed
  incrementally over the growing history (see `trajscope.mi`), and
* a physics weight rho built from windowed kinematics: how fast the agents
  move (V), how far apart they are (D), and how squarely agent I is heading
  at agent J (H).

Scores are folded through an exponential-memory recurrence

    aim[t] = delta * aim[t-1] + rho[t] * mi[t],        aim before start = 0

so the final value equals sum_t delta^(T-t) * rho[t] * mi[t] exactly.
Measurement starts after a warm-up buffer of `n_window` frames so every
evaluation has a full kinematics window behind it.

Measurement is one array pass per unordered pair. `InteractionPair.kinematics`
gives V, D and the speed change A at every measured frame from
sliding-window sums, once per pair object; they are symmetric in the two
agents, and so is the dependence estimate, so `sweep(..., both_directions=True)`
computes each once for both directions and only H, rho and the recurrence
per direction. The v0/a0 fit reads the same cached arrays; sigma_d is a
per-video scale, fitted by the caller. `compute_kinematics` and
`compute_rho` are one-frame entry points to the same code: the first runs
it on the one window that ends at a frame, the second on one-element
arrays, so both equal the series bit for bit.

`final_bounds` bounds `sweep`'s final values in one discounted sum per
direction, over rho and `mi_prefix_bound` (marginal cells only) in place
of the estimate. `select`, the selection `trajscope aim` exports, ranks
the top k by measuring pairs in decreasing order of their bound, video by
video, and stops once the k-th best final value is above the next bound:
every pair left is below it, so the selection is the one that measuring
every pair would give.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mi import BOUND_MARGIN, mi_prefix_bound, mi_prefix_series
from .types import (  # DEFAULT_BANDWIDTHS and DEFAULT_N_MIN stay importable from here
    DEFAULT_BANDWIDTHS, DEFAULT_DELTA, DEFAULT_N_MIN, DEFAULT_N_WINDOW, ConfigError, DomainError,
    InsufficientDataError, MIConfig, RhoConfig, StructuralError, Trajectory, check_first_eval_point,
    checked_count, checked_delta, scene_diagonal,
)


@dataclass(frozen=True)
class Kinematics:
    """Windowed motion summary for one directed pair at one frame.

    v: mean per-step movement (both agents pooled), pixels per native frame.
    d: mean separation over the window's frames, pixels.
    h: mean unsigned angle between agent I's step and the bearing to J,
       radians in [0, pi]; 0 means heading straight at J.
    a: mean per-step speed change (both agents pooled), pixels per frame^2.
    """

    v: float
    d: float
    h: float
    a: float = 0.0


@dataclass(frozen=True, eq=False)
class InteractionPair:
    """One direction of a co-present pair: agent_i is the observer.

    frames holds the longest constant-spacing run of frames both agents
    share; xi/xj are the (L, 2) center coordinates aligned to it. The
    reverse direction is a separate pair with xi/xj swapped.
    """

    agent_i: Trajectory
    agent_j: Trajectory
    frames: np.ndarray
    xi: np.ndarray
    xj: np.ndarray
    n_window: int

    @property
    def first_frame(self) -> int:
        return int(self.frames[0])

    @property
    def last_frame(self) -> int:
        return int(self.frames[-1])

    @property
    def key(self) -> tuple[str, str]:
        return (self.agent_i.uid, self.agent_j.uid)

    @cached_property
    def kinematics(self) -> PairKinematics:
        """v, d and a at every measured frame, frames[n_window:], in one array pass.

        They are the same in both directions. Computed on first use and kept
        for the life of this pair object.
        """
        n = checked_count(self.n_window, "n_window")
        if len(self.frames) < n + 1:
            raise InsufficientDataError(
                f"pair {self.key} has {len(self.frames)} common frames; "
                f"need at least {n + 1} for an n_window of {n}"
            )
        speed_i = _speeds(self.xi)
        speed_j = _speeds(self.xj)
        v = (_window_sums(speed_i, n) + _window_sums(speed_j, n)) / n
        gaps = self.xi[1:] - self.xj[1:]
        d = _window_sums(np.hypot(gaps[:, 0], gaps[:, 1]), n) / n
        if n >= 2:
            a = (
                _window_sums(np.abs(np.diff(speed_i)), n - 1)
                + _window_sums(np.abs(np.diff(speed_j)), n - 1)
            ) / (n - 1)
        else:
            a = np.zeros_like(v)
        return PairKinematics(v=v, d=d, a=a)

    def reversed(self) -> "InteractionPair":
        """The same pair observed from agent_j."""
        return InteractionPair(
            self.agent_j, self.agent_i, self.frames, self.xj, self.xi, self.n_window
        )

    def index_of(self, frame: int) -> int:
        idx = int(np.searchsorted(self.frames, frame))
        if idx >= len(self.frames) or self.frames[idx] != frame:
            raise DomainError(f"frame {frame} is not in the pair's common run")
        return idx


@dataclass(eq=False)
class MeasureSeries:
    """Per-frame interaction measurements for one directed pair."""

    pair: InteractionPair
    delta: float
    n_window: int
    frames: np.ndarray
    mi: np.ndarray
    rho: np.ndarray
    aim: np.ndarray
    rho_config: RhoConfig | None = field(default=None)

    @property
    def final(self) -> float:
        return float(self.aim[-1])


def _uniform_run(frames: np.ndarray) -> slice:
    """The longest slice of `frames` with constant spacing (earliest wins ties)."""
    if frames.size <= 2:
        return slice(0, frames.size)
    diffs = np.diff(frames)
    # diff-index starts of the runs of equal diffs, and their lengths
    starts = np.flatnonzero(np.concatenate(([True], diffs[1:] != diffs[:-1])))
    lengths = np.diff(np.append(starts, diffs.size))
    best = int(np.argmax(lengths))  # the first maximum
    start = int(starts[best])
    return slice(start, start + int(lengths[best]) + 1)


def _run_rows(
    fa: np.ndarray, fb: np.ndarray, lo: int, hi: int, gap_free: bool
) -> tuple[slice | np.ndarray, slice | np.ndarray]:
    """Rows of a and of b holding the longest constant-spacing run of the
    frames both tracks have in [lo, hi], their overlap.

    Frames are strictly increasing. When both tracks are gap-free
    (`gap_free`), every frame of the overlap is common, so the rows are
    slices. Otherwise one binary search of a's frames in the overlap into b
    finds the common frames, and `_uniform_run` picks the run.
    """
    if gap_free:
        a0, b0 = int(fa[0]), int(fb[0])
        return slice(lo - a0, hi + 1 - a0), slice(lo - b0, hi + 1 - b0)
    a_start = int(np.searchsorted(fa, lo))
    window = fa[a_start : int(np.searchsorted(fa, hi, side="right"))]
    in_b = np.searchsorted(fb, window)  # below len(fb), since hi <= fb[-1]
    hit = fb[in_b] == window
    rows_a, rows_b = a_start + np.flatnonzero(hit), in_b[hit]
    run = _uniform_run(fa[rows_a])
    return rows_a[run], rows_b[run]


def extract_interactions(
    trajectories: Sequence[Trajectory], n_window: int
) -> list[InteractionPair]:
    """Build every directed pair with enough co-presence to measure.

    Two trajectories qualify when their longest constant-spacing run of
    common frames still has at least one frame left after the warm-up
    buffer of `n_window` frames. Each qualifying unordered pair yields both
    directions, next to each other and in deterministic order by (source,
    track id, segment); the first of the two has the lower key as agent_i.

    Each track's frame interval is compared with every later track's at
    once, and only pairs whose overlap could hold the run are searched
    (`_run_rows`).
    """
    n_window = checked_count(n_window, "n_window")
    ordered = sorted(
        trajectories, key=lambda t: (t.source.key(), t.track_id, t.segment)
    )
    tracks = [(t, t.frames(), t.xy()) for t in ordered if len(t)]
    first = np.array([frames[0] for _, frames, _ in tracks], dtype=np.int64)
    last = np.array([frames[-1] for _, frames, _ in tracks], dtype=np.int64)
    gap_free = (last - first == np.array([len(f) for _, f, _ in tracks]) - 1).tolist()
    pairs: list[InteractionPair] = []
    for a, (ta, fa, xa) in enumerate(tracks):
        lo = np.maximum(first[a], first[a + 1 :])
        hi = np.minimum(last[a], last[a + 1 :])
        # a track's frames are distinct: the common run spans at most
        # hi - lo + 1 frames and needs n_window + 1
        near = np.flatnonzero(hi - lo >= n_window)
        for b, start, stop in zip((a + 1 + near).tolist(), lo[near].tolist(), hi[near].tolist()):
            tb, fb, xb = tracks[b]
            rows_a, rows_b = _run_rows(fa, fb, start, stop, gap_free[a] and gap_free[b])
            frames = fa[rows_a]
            if frames.size < n_window + 1:
                continue
            forward = InteractionPair(ta, tb, frames, xa[rows_a], xb[rows_b], n_window)
            pairs += (forward, forward.reversed())
    return pairs


def compute_kinematics(pair: InteractionPair, t: int) -> Kinematics:
    """Summarize motion over the pair's `n_window` steps ending at frame `t`.

    The window spans indices [it - n, it] of the common run, i.e. n steps
    and n+1 positions. Requesting a frame with fewer than n frames of
    co-presence behind it is a domain error. The values are those of
    `InteractionPair.kinematics` and `_headings` on that window alone.
    """
    n = checked_count(pair.n_window, "n_window")
    it = pair.index_of(t)
    if it < n:
        raise DomainError(
            f"frame {t} has only {it} co-present steps behind it, need {n}"
        )
    rows = slice(it - n, it + 1)
    window = InteractionPair(
        pair.agent_i, pair.agent_j, pair.frames[rows], pair.xi[rows], pair.xj[rows], n
    )
    kin = window.kinematics
    return Kinematics(
        v=float(kin.v[0]), d=float(kin.d[0]), h=float(_headings(window)[0]), a=float(kin.a[0])
    )


def compute_rho(kin: Kinematics, config: RhoConfig | None = None) -> float:
    """Physics weight in [0, inf); see RhoConfig for the factor shapes.

    `_rho_series` on one-element arrays, after the input checks.
    """
    cfg = config if config is not None else RhoConfig()
    if kin.v < 0 or kin.d < 0 or kin.a < 0:
        raise DomainError(f"kinematics must be nonnegative, got {kin!r}")
    if not -1e-9 <= kin.h <= math.pi + 1e-9:
        raise DomainError(f"heading angle must be in [0, pi], got {kin.h!r}")

    v, d, a, h = np.array([[kin.v], [kin.d], [kin.a], [kin.h]], dtype=np.float64)
    return float(_rho_series(PairKinematics(v=v, d=d, a=a), h, cfg)[0])


# --- whole-series measurement ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairKinematics:
    """Direction-free windowed kinematics of a pair at every measured frame.

    Entry k belongs to frame frames[n_window + k]: the v, d and a of the
    n_window steps ending there, the same in either direction. Built by
    `InteractionPair.kinematics`.
    """

    v: np.ndarray
    d: np.ndarray
    a: np.ndarray


def _window_sums(values: np.ndarray, n: int) -> np.ndarray:
    """Sums of every n consecutive values, each added as values[k:k+n].sum() adds."""
    return sliding_window_view(values, n).sum(axis=-1)


def _speeds(x: np.ndarray) -> np.ndarray:
    steps = np.diff(x, axis=0)
    return np.hypot(steps[:, 0], steps[:, 1])


def _headings(pair: InteractionPair) -> np.ndarray:
    """h at every measured frame, for the pair's direction (see Kinematics).

    A step where agent I does not move, or coincides with J, has no angle
    and leaves the window's mean; a window with no angle has h = 0.
    """
    n = pair.n_window
    steps = np.diff(pair.xi, axis=0)
    bearings = pair.xj[:-1] - pair.xi[:-1]
    cross = steps[:, 0] * bearings[:, 1] - steps[:, 1] * bearings[:, 0]
    dot = steps[:, 0] * bearings[:, 0] + steps[:, 1] * bearings[:, 1]
    # a zero step or bearing has no direction; such steps leave the mean
    counted = (steps != 0.0).any(axis=1) & (bearings != 0.0).any(axis=1)
    angles = np.where(counted, np.arctan2(np.abs(cross), dot), 0.0)
    totals = _window_sums(angles, n)
    counts = _window_sums(counted.astype(np.int64), n)
    return np.divide(totals, counts, out=np.zeros_like(totals), where=counts > 0)


def _rho_series(kin: PairKinematics, h: np.ndarray, cfg: RhoConfig) -> np.ndarray:
    """rho at every measured frame (see RhoConfig); D* is 0 where d / sigma_d
    overflows, and rho is inf where the product does."""
    v_term = d_term = h_term = np.ones_like(h)
    if cfg.use_v:
        v_star = kin.v / (kin.v + cfg.v0)
        if cfg.use_a:
            v_star = v_star + kin.a / (kin.a + cfg.a0)
        v_term = cfg.alpha + v_star
    if cfg.use_h:
        h_term = 1.0 + (1.0 - 2.0 * np.clip(h, 0.0, math.pi) / math.pi)
    with np.errstate(over="ignore"):
        if cfg.use_d:
            d_term = np.exp(-kin.d / cfg.sigma_d)
        return v_term * d_term * h_term


def _finite_rho(kin: PairKinematics, direction: InteractionPair, cfg: RhoConfig) -> np.ndarray:
    """`_rho_series` in `direction`; a rho that overflows is a DomainError naming the pair."""
    rho = _rho_series(kin, _headings(direction), cfg)
    if not np.isfinite(rho).all():
        raise DomainError(f"pair {direction.key}: rho overflows (alpha {cfg.alpha!r})")
    return rho


def _recurrence(terms: np.ndarray, delta: float) -> np.ndarray:
    return np.fromiter(accumulate(terms.tolist(), lambda aim, term: delta * aim + term), np.float64, len(terms))


def _series_arrays(
    name: str, series: Sequence[tuple[int, float]]
) -> tuple[np.ndarray, np.ndarray]:
    if not series:
        raise StructuralError(f"{name} series is empty")
    frames = np.array([int(f) for f, _ in series], dtype=np.int64)
    values = np.array([float(v) for _, v in series], dtype=np.float64)
    if (np.diff(frames) <= 0).any():
        raise StructuralError(f"{name} series frames must be strictly increasing")
    if not np.isfinite(values).all():
        raise DomainError(f"{name} series contains non-finite values")
    return frames, values


def accumulate_aim(
    pair: InteractionPair,
    mi_series: Sequence[tuple[int, float]],
    rho_series: Sequence[tuple[int, float]],
    delta: float = DEFAULT_DELTA,
) -> MeasureSeries:
    """Fold per-frame (frame, value) series through the memory recurrence.

    Both series must cover exactly the same frames, in order. delta must
    satisfy 0 < delta <= 1; delta = 1 accumulates without forgetting.
    """
    delta = checked_delta(delta)
    mi_frames, mi_values = _series_arrays("mi", mi_series)
    rho_frames, rho_values = _series_arrays("rho", rho_series)
    if len(mi_frames) != len(rho_frames) or (mi_frames != rho_frames).any():
        raise StructuralError("mi and rho series must cover the same frames")
    if mi_frames[0] < pair.first_frame or mi_frames[-1] > pair.last_frame:
        raise StructuralError("series frames fall outside the pair's common run")
    return MeasureSeries(
        pair=pair,
        delta=delta,
        n_window=pair.n_window,
        frames=mi_frames,
        mi=mi_values,
        rho=rho_values,
        aim=_recurrence(rho_values * mi_values, delta),
    )


def sweep(
    pair: InteractionPair,
    delta_values: Sequence[float],
    n_values: Sequence[int],
    *,
    rho_config: RhoConfig | None = None,
    mi_config: MIConfig | None = None,
    both_directions: bool = False,
) -> list[MeasureSeries]:
    """One MeasureSeries per (n_window, delta) combination.

    The dependence stream is fed every co-present sample from the first
    common frame; evaluation starts once the n_window warm-up buffer has
    passed, so each series covers frames[n_window:]. The dependence series
    is computed once, at the frames the smallest n_window measures (a larger
    one takes a tail), kinematics once per n_window, and both are reused
    across deltas. With both_directions, each n_window also yields the
    series of `pair.reversed()`, sharing both (only the heading differs).
    Results are ordered by n_values outer, then direction, then delta_values.
    A rho or aim value that overflows is a DomainError naming the pair.
    """
    cfg = rho_config if rho_config is not None else RhoConfig()
    deltas = [checked_delta(delta) for delta in delta_values]
    ns = [checked_count(n, "n_window") for n in n_values]
    if not ns:
        return []
    first = min(ns)
    estimates = mi_prefix_series(
        np.stack([pair.xi, pair.xj], axis=1), range(first + 1, len(pair.frames) + 1), config=mi_config
    )
    values = np.array([v for _, v in estimates], dtype=np.float64)
    out: list[MeasureSeries] = []
    for n in ns:
        variant = pair if n == pair.n_window else dataclasses.replace(pair, n_window=n)
        kin = variant.kinematics
        frames = variant.frames[n:]
        mi = values[n - first :]
        for direction in (variant, variant.reversed()) if both_directions else (variant,):
            rho = _finite_rho(kin, direction, cfg)
            with np.errstate(over="ignore"):
                terms = rho * mi
            for delta in deltas:
                aim = _recurrence(terms, delta)
                if not math.isfinite(aim[-1]):  # an inf term or aim value stays inf to the end
                    raise DomainError(f"pair {direction.key}: aim overflows at delta {delta}, n_window {n}")
                out.append(MeasureSeries(direction, delta, n, frames, mi, rho, aim, rho_config=cfg))
    return out


def final_bounds(
    pair: InteractionPair,
    *,
    delta: float = DEFAULT_DELTA,
    rho_config: RhoConfig | None = None,
    mi_config: MIConfig | None = None,
) -> tuple[float, float]:
    """Upper bounds on the final aim of `pair` and of `pair.reversed()`: each is
    sum_t delta^(T-t) * w[t] over the T measured frames, w = rho * b, with b
    `mi_prefix_bound` and rho as `sweep` computes it, times 1 + BOUND_MARGIN,
    plus 4T * 2**-1074. Its checks and errors are `sweep`'s, in `sweep`'s order.

    The estimate is at most b, rho >= 0 and rounding is monotone, so `sweep`'s
    final value is at most its loop run on w. Loop and sum differ by rounding
    alone: u = 2**-53 relative per operation, or 2**-1075 absolute where a
    product underflows (a sum that underflows is exact), and a few ulps per
    weight delta**k, raised to the smallest normal number when below it. A
    term is rounded at most 2T times in the loop and T times in the sum: a gap
    under (3T + 20) * u, below half of BOUND_MARGIN for T up to 1.5 million
    frames (14 hours at 30 fps). Each of the 2T products by delta or by a
    weight underflows at most once: 4T * 2**-1074 is four times that.
    """
    cfg = rho_config if rho_config is not None else RhoConfig()
    delta, n = checked_delta(delta), checked_count(pair.n_window, "n_window")
    b = mi_prefix_bound(
        np.stack([pair.xi, pair.xj], axis=1), range(n + 1, len(pair.frames) + 1), config=mi_config
    )
    weight = np.maximum(delta ** np.arange(len(b) - 1, -1, -1), np.finfo(np.float64).tiny)
    with np.errstate(over="ignore"):  # a sum that overflows is an inf bound
        sums = [(_finite_rho(pair.kinematics, d, cfg) * b * weight).sum() for d in (pair, pair.reversed())]
    return tuple(float(total) * (1.0 + BOUND_MARGIN) + 4 * len(b) * math.ulp(0.0) for total in sums)


def measure_interaction(
    pair: InteractionPair,
    *,
    delta: float = DEFAULT_DELTA,
    rho_config: RhoConfig | None = None,
    mi_config: MIConfig | None = None,
) -> MeasureSeries:
    """Full measurement for one directed pair: `sweep` at (pair.n_window, delta)."""
    (series,) = sweep(pair, [delta], [pair.n_window], rho_config=rho_config, mi_config=mi_config)
    return series


def _median(values: np.ndarray) -> float:
    """np.median of finite values (a zero's sign aside), without its NaN check,
    which imports numpy.ma: the middle value, or the mean of the two middle
    values, of the sorted array."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def fit_normalizers(
    pairs: Sequence[InteractionPair], base: RhoConfig | None = None
) -> RhoConfig:
    """Fit v0/a0 from data, keeping the base values where data is flat.

    v0 and a0 become the median windowed speed / speed change across every
    measurable frame of every pair (windows of each pair's n_window steps; a
    pair with fewer than n_window + 1 frames is skipped). Both directions of
    a pair give the same values, so one direction per pair is enough. The
    values are read from `InteractionPair.kinematics`, the arrays `sweep`
    measures with, so a fit followed by a measurement computes them once.
    Base values are kept when a fitted value would not be a positive number.
    sigma_d is left as it is: it is a per-video scale, fitted from that
    video's scene diagonal by the caller.
    """
    cfg = base if base is not None else RhoConfig()
    kinematics = [pair.kinematics for pair in pairs if len(pair.frames) > pair.n_window]
    if not kinematics:
        return cfg
    v0 = _median(np.concatenate([k.v for k in kinematics]))
    a0 = _median(np.concatenate([k.a for k in kinematics]))
    return dataclasses.replace(
        cfg,
        v0=v0 if v0 > 0 else cfg.v0,
        a0=a0 if a0 > 0 else cfg.a0,
    )


@dataclass(frozen=True, eq=False)
class Selection:
    """`select`'s (video key, series) list, and its counts of the unordered pairs
    of tracks in a video (considered), of those `extract_interactions` keeps
    (measurable), of those measured (with a named pair, its directions) and of
    the measurable pairs the bound left unmeasured (skipped; 0 with a named pair)."""

    series: list[tuple[tuple[str, str, str], MeasureSeries]]
    considered: int
    measurable: int
    measured: int
    skipped: int


def select(
    videos: Iterable[tuple[tuple[str, str, str], Iterable[Trajectory]]], settings, *, top_k: int = 5,
    named: Sequence[str] | None = None, deltas: Sequence[float] | None = None, n_values: Sequence[int] | None = None,
) -> Selection:
    """The series `trajscope aim` exports, from one read of `videos`: each
    video's key and trajectories, in key order. `settings` is a run config
    (`trajscope.cli.RunConfig`), read by attribute.

    With `named`, the series of that directed pair at every (n_window, delta)
    of `n_values` x `deltas`, in each video where it is measurable; a named
    track in no video is a ConfigError once every video is read, before a
    v0/a0 fit. Else the `top_k` best series at the config's delta and
    n_window, best first; each video's pairs are measured in decreasing order
    of `final_bounds` until the k-th best final value so far is above the next
    bound. The winners are measured again at `n_values` x `deltas` (None: the
    config's own) if those differ. A v0/a0 fit is a first pass over every
    video's pairs, kept for the second; a fitted sigma_d is the video's scene
    diagonal / 8. Before `videos` is read, each argument is checked with the
    message of the `trajscope aim` option it comes from, and the smallest
    window measured against the config's n_min.
    """
    n_window = settings.n_window or DEFAULT_N_WINDOW[settings.dataset]
    deltas = [settings.delta] if deltas is None else [checked_delta(d) for d in deltas]
    n_values = [n_window] if n_values is None else [checked_count(n, "n_window") for n in n_values]
    if not deltas or not n_values:
        raise ConfigError(f"{'--sweep-n' if deltas else '--sweep-delta'} is empty")
    named = None if named is None else tuple(named)
    if named is not None and named[0] == named[1]:
        raise ConfigError(f"--pair names track {named[0]!r} twice; a pair needs two tracks")
    top_k = checked_count(top_k, "--top-k")
    # the smallest window measured: a named pair is measured at the n_values, the top-k ranking at n_window too
    check_first_eval_point(min(n_values if named is not None else [n_window, *n_values]) + 1, settings.mi.n_min)
    considered = measurable = measured = 0

    def pairs_of_each_video():
        nonlocal considered, measurable
        uids: set[str] = set()
        for key, trajectories in videos:
            trajectories = list(trajectories)
            uids.update(t.uid for t in trajectories)
            considered += len(trajectories) * (len(trajectories) - 1) // 2
            # extract_interactions puts both directions of a pair next to each other
            pairs = extract_interactions(trajectories, n_window)[::2]
            measurable += len(pairs)
            if pairs:
                yield key, trajectories, pairs
        for uid in named or ():
            if uid not in uids:
                raise ConfigError(f"unknown track id {uid!r} (not in the ingested store)")

    batches = pairs_of_each_video()
    rho = settings.rho
    if settings.fit_v0 or settings.fit_a0:
        batches = list(batches)
        fitted = fit_normalizers([pair for *_, pairs in batches for pair in pairs], base=rho)
        v0, a0 = fitted.v0 if settings.fit_v0 else rho.v0, fitted.a0 if settings.fit_a0 else rho.a0
        rho = dataclasses.replace(rho, v0=v0, a0=a0)
    chosen: list[tuple[tuple[str, str, str], MeasureSeries]] = []
    for key, trajectories, pairs in batches:
        diagonal = scene_diagonal(trajectories) if settings.fit_sigma_d else 0.0
        video_rho = dataclasses.replace(rho, sigma_d=diagonal / 8.0) if diagonal > 0 else rho
        if named is not None:
            for direction in [d for pair in pairs for d in (pair, pair.reversed()) if d.key == named]:
                measured += 1
                series = sweep(direction, deltas, n_values, rho_config=video_rho, mi_config=settings.mi)
                chosen += [(key, s) for s in series]
            continue
        bounds = [
            max(final_bounds(pair, delta=settings.delta, rho_config=video_rho, mi_config=settings.mi)) for pair in pairs
        ]
        for bound, pair in sorted(zip(bounds, pairs), key=lambda c: (-c[0], c[1].key)):
            # bounds only fall from here on, and a series whose final value is
            # below the k-th best cannot enter the selection, even by a tie
            if len(chosen) == top_k and chosen[-1][1].final > bound:
                break
            measured += 1
            series = sweep(
                pair, [settings.delta], [n_window], rho_config=video_rho, mi_config=settings.mi, both_directions=True
            )
            # best first: the highest final value, ties to the lower video key, then the lower pair key
            chosen += [(key, s) for s in series]
            chosen = sorted(chosen, key=lambda c: (-c[1].final, c[0], c[1].pair.key))[:top_k]
    if not chosen:
        raise InsufficientDataError(
            f"tracks {named[0]} and {named[1]} share too few co-present frames "
            f"(need {n_window + 1} at constant spacing in one video)"
            if named is not None
            else f"no measurable pairs in the store (need {n_window + 1} co-present frames at constant spacing)"
        )
    if named is None and (deltas, n_values) != ([settings.delta], [n_window]):
        # the selected pairs, measured again at every swept setting
        chosen = [
            (key, series)
            for key, best in chosen
            for series in sweep(best.pair, deltas, n_values, rho_config=best.rho_config, mi_config=settings.mi)
        ]
    return Selection(chosen, considered, measurable, measured, 0 if named is not None else measurable - measured)
