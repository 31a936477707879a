"""Preprocessing pipeline: lost-point filtering, resampling, windowing.

The pipeline order is fixed: filter lost points on the raw trajectory, then
resample to the target rate, then cut observation/prediction windows.
Filtering must come first — resampling first would alias short lost runs
into the kept points.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .types import ConfigError, Trajectory, check_positive, checked_count


class LostPolicy(str, Enum):
    """What to do with points flagged as lost (out of the video's bounds).

    FILTER_KEEP_FIRST: drop lost points; if that splits the trajectory,
        keep only the first contiguous piece.
    FILTER_KEEP_ALL: drop lost points; keep every contiguous piece as its
        own trajectory (ids get a .k suffix).
    KEEP_LOST: leave the trajectory untouched.
    """

    FILTER_KEEP_FIRST = "filter_keep_first"
    FILTER_KEEP_ALL = "filter_keep_all"
    KEEP_LOST = "keep_lost"

    @classmethod
    def parse(cls, value: "LostPolicy | str") -> "LostPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ConfigError(f"unknown lost policy {value!r} (options: {options})") from None


@dataclass(frozen=True)
class PreprocessConfig:
    """Checked when built, also by dataclasses.replace: a bad field is a ConfigError."""

    lost_policy: LostPolicy = LostPolicy.FILTER_KEEP_FIRST
    drop_generated: bool = False
    target_rate: float = 2.5
    observe_len: int = 8
    predict_len: int = 12
    # None -> non-overlapping tiles (stride = observe_len + predict_len)
    stride: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lost_policy", LostPolicy.parse(self.lost_policy))
        if not isinstance(self.drop_generated, bool):
            raise ConfigError(f"drop_generated must be True or False, got {self.drop_generated!r}")
        check_positive(self.target_rate, "target_rate")
        checked_count(self.observe_len, "observe_len", minimum=2)  # velocity needs two points
        checked_count(self.predict_len, "predict_len")
        if self.stride is not None:
            checked_count(self.stride, "stride")


@dataclass(frozen=True)
class TrajectoryWindow:
    """One observation/prediction sample cut from a trajectory."""

    track: Trajectory
    start_frame: int
    frames: np.ndarray  # (observe_len + predict_len,) native frame indices
    observed: np.ndarray  # (observe_len, 2)
    future: np.ndarray  # (predict_len, 2)

    @property
    def class_label(self) -> str:
        return self.track.class_label

    @property
    def window_id(self) -> str:
        src = self.track.source
        return f"{src.dataset}:{src.scene}:{src.video}:{self.track.uid}@{self.start_frame}"


@dataclass(frozen=True)
class LostPositions:
    start: bool
    middle: bool
    end: bool


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop indices of the maximal runs of True in a 1-D mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return edges[::2], edges[1::2]


def filter_lost(traj: Trajectory, policy: LostPolicy | str) -> list[Trajectory]:
    """Apply a lost policy; an entirely-lost trajectory yields an empty list."""
    policy = LostPolicy.parse(policy)
    if policy is LostPolicy.KEEP_LOST:
        return [traj]
    starts, stops = _runs(traj.points["lost"] == 0)
    if policy is LostPolicy.FILTER_KEEP_FIRST:
        return [traj.with_points(traj.points[a:b]) for a, b in zip(starts[:1], stops[:1])]
    return [
        traj.with_points(traj.points[a:b], segment=i)
        for i, (a, b) in enumerate(zip(starts, stops))
    ]


def classify_lost_positions(traj: Trajectory) -> LostPositions:
    """Where do the lost points sit: first point, last point, and/or a run
    strictly inside the trajectory (non-lost on both sides)?

    The flags are independent; one trajectory can set all three. A fully
    lost trajectory counts as start+end but not middle.
    """
    lost = traj.points["lost"] != 0
    if not lost.size:
        return LostPositions(False, False, False)
    starts, stops = _runs(lost)
    middle = bool(np.any((starts > 0) & (stops < lost.size)))
    return LostPositions(start=bool(lost[0]), middle=middle, end=bool(lost[-1]))


def resample(traj: Trajectory, native_rate: float, target_rate: float) -> Trajectory:
    """Keep every k-th point, k = native_rate/target_rate, anchored at the
    trajectory's first point."""
    if native_rate <= 0 or target_rate <= 0:
        raise ConfigError("frame rates must be positive")
    ratio = native_rate / target_rate
    k = round(ratio) if np.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ConfigError(
            f"target rate {target_rate} does not evenly divide native rate {native_rate}"
        )
    if k == 1:
        return traj
    return traj.with_points(traj.points[::k])


def window(traj: Trajectory, cfg: PreprocessConfig) -> list[TrajectoryWindow]:
    """Cut observe+predict windows from an already-resampled trajectory.

    Windows tile from the start (stride defaults to the full window length);
    a trailing remainder shorter than one window is discarded.
    """
    total = cfg.observe_len + cfg.predict_len
    stride = cfg.stride or total
    n = len(traj)
    if n < total:
        return []
    xy = traj.xy()
    frames = traj.frames()
    out: list[TrajectoryWindow] = []
    for start in range(0, n - total + 1, stride):
        stop = start + total
        out.append(
            TrajectoryWindow(
                track=traj,
                start_frame=int(frames[start]),
                frames=frames[start:stop].copy(),
                observed=xy[start : start + cfg.observe_len].copy(),
                future=xy[start + cfg.observe_len : stop].copy(),
            )
        )
    return out


def drop_generated(traj: Trajectory) -> Trajectory:
    return traj.with_points(traj.points[traj.points["generated"] == 0])


def preprocess_trajectory(
    traj: Trajectory, cfg: PreprocessConfig, native_rate: float
) -> list[TrajectoryWindow]:
    """filter -> (drop generated) -> resample -> window, flattened."""
    windows: list[TrajectoryWindow] = []
    for piece in filter_lost(traj, cfg.lost_policy):
        if cfg.drop_generated:
            piece = drop_generated(piece)
        if not len(piece):
            continue
        piece = resample(piece, native_rate, cfg.target_rate)
        windows.extend(window(piece, cfg))
    return windows
