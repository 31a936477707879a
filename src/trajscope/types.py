"""Shared domain types and error classes.

Coordinates are pixel-space throughout: x grows rightward, y grows downward.
All timestamps are integer frame indices in the source video's native clock.

A trajectory's points are one numpy structured array of POINT_DTYPE, one
row per frame in increasing frame order. Its fields follow the store's
column order: frame (int64), x and y (float64), and the lost, occluded and
generated flags (uint8, 0 or 1).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

# Canonical class labels. SDD ships the first six; inD maps onto
# {Pedestrian, Biker, Car, TruckBus}. TruckBus stays distinct from Bus
# because the two datasets count them differently.
SDD_CLASSES: tuple[str, ...] = ("Pedestrian", "Biker", "Skater", "Cart", "Car", "Bus")
IND_CLASSES: tuple[str, ...] = ("Pedestrian", "Biker", "Car", "TruckBus")
ALL_CLASSES: tuple[str, ...] = SDD_CLASSES + ("TruckBus",)

_CANONICAL_BY_LOWER = {c.lower(): c for c in ALL_CLASSES}


def canonical_class(label: str) -> str | None:
    """Map a raw class label to its canonical spelling, case-insensitively.

    Returns None for labels outside the known set; callers decide whether
    that is a parse error or a mapping concern.
    """
    return _CANONICAL_BY_LOWER.get(label.strip().lower())


class ToolError(Exception):
    """Base class for all errors this package raises deliberately."""


class ParseError(ToolError):
    """A malformed input row. Carries the source path and 1-based line number."""

    def __init__(self, message: str, path: str = "<input>", line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")


class StructuralError(ToolError):
    """Input parsed row-by-row but violates a cross-row constraint."""


class ConfigError(ToolError):
    """An invalid configuration value or registry schema violation."""


class InsufficientDataError(ToolError):
    """Too few samples for the requested computation."""


class DomainError(ToolError):
    """A value outside an operation's mathematical domain."""


@dataclass(frozen=True)
class SourceRef:
    """Identifies where a trajectory came from: (dataset, scene, video)."""

    dataset: str
    scene: str
    video: str

    def key(self) -> tuple[str, str, str]:
        return (self.dataset, self.scene, self.video)


POINT_DTYPE = np.dtype(
    [
        ("frame", np.int64),
        ("x", np.float64),
        ("y", np.float64),
        ("lost", np.uint8),
        ("occluded", np.uint8),
        ("generated", np.uint8),
    ]
)


@dataclass(eq=False)
class Trajectory:
    """Ordered per-frame center coordinates for one track.

    `points` is a POINT_DTYPE array. `segment` distinguishes pieces of the
    same raw track id after a split-into-segments filter; segment 0 is the
    unsplit/first piece.
    """

    track_id: int
    class_label: str
    points: np.ndarray
    source: SourceRef
    segment: int = 0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def uid(self) -> str:
        if self.segment:
            return f"{self.track_id}.{self.segment}"
        return str(self.track_id)

    def frames(self) -> np.ndarray:
        return self.points["frame"].copy()

    def xy(self) -> np.ndarray:
        """(n, 2) float array of center coordinates in point order."""
        return np.column_stack((self.points["x"], self.points["y"]))

    def lost_flags(self) -> np.ndarray:
        return self.points["lost"].astype(bool)

    def with_points(self, points: np.ndarray, segment: int | None = None) -> "Trajectory":
        return Trajectory(
            track_id=self.track_id,
            class_label=self.class_label,
            points=points,
            source=self.source,
            segment=self.segment if segment is None else segment,
        )

    def validate(self) -> None:
        if np.any(np.diff(self.points["frame"]) <= 0):
            raise StructuralError(
                f"track {self.uid} of {self.source.key()}: frames not strictly increasing"
            )


def split_tracks(track_ids: np.ndarray, frames: np.ndarray) -> list[np.ndarray]:
    """Row indices of each track, tracks by increasing id, rows by frame."""
    order = np.lexsort((frames, track_ids))
    cuts = np.flatnonzero(np.diff(track_ids[order])) + 1
    return np.split(order, cuts) if order.size else []


def read_columns(text: IO[str], dtype: np.dtype, **options) -> np.ndarray | None:
    """Read delimited text into a 1-D array of `dtype` with one np.loadtxt call.

    Returns None when numpy cannot read the text as given: a field that
    does not convert, a wrong column count, or no rows at all. The caller's
    per-row loop then reads it, and that loop is the only place that names
    a bad row. Every numpy warning counts as a failure, so the "no data"
    warning does not escape and numpy < 2, which reads "7.0" as an integer
    with a DeprecationWarning, is not more lenient than the loop. Comments
    are off: "#" is data to the loop.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(text, dtype=dtype, comments=None, ndmin=1, **options)
        except (ValueError, Warning):
            return None


def scene_diagonal(trajectories: Sequence[Trajectory]) -> float:
    """Diagonal of the bounding box of every center coordinate, in pixels.

    Used as the scale reference for distance normalization when no reference
    image is available (images are never read).
    """
    if not any(len(traj) for traj in trajectories):
        return 0.0
    xy = np.concatenate([traj.xy() for traj in trajectories])
    return float(np.hypot(*(xy.max(axis=0) - xy.min(axis=0))))
