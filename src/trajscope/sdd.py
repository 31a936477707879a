"""Parser for SDD-style annotation files.

Row format: 10 whitespace-separated fields, newline-terminated:

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

lost/occluded/generated are 0/1; the label is double-quoted. Files reach
millions of rows, so parsing streams line by line.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .types import (
    POINT_DTYPE,
    AnnotationRecord,
    ParseError,
    SourceRef,
    StructuralError,
    Trajectory,
    canonical_class,
    split_tracks,
)


@dataclass
class IngestDiagnostics:
    """Side observations collected while assembling trajectories."""

    rows: int = 0
    tracks: int = 0
    # track_id -> distinct labels in frame order (only tracks that change label)
    label_changes: dict[int, list[str]] = field(default_factory=dict)
    empty_after_filter: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "tracks": self.tracks,
            "label_changes": {str(k): v for k, v in sorted(self.label_changes.items())},
            "empty_after_filter": list(self.empty_after_filter),
            "notes": list(self.notes),
        }


def _iter_lines(source: str | Path | IO[str] | Iterable[str]) -> tuple[Iterable[str], str]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.open("r", encoding="utf-8"), str(path)
    name = getattr(source, "name", "<input>")
    return source, str(name)


def _parse_int(token: str, what: str, path: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"field {what!r} is not an integer: {token!r}", path, line_no) from None
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"field {what!r} is out of the int64 range: {token!r}", path, line_no)
    return value


def _parse_float(token: str, what: str, path: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"field {what!r} is not numeric: {token!r}", path, line_no) from None
    if not isfinite(value):
        raise ParseError(f"field {what!r} is not finite: {token!r}", path, line_no)
    return value


def _parse_flag(token: str, what: str, path: str, line_no: int) -> bool:
    if token == "0":
        return False
    if token == "1":
        return True
    raise ParseError(f"field {what!r} must be 0 or 1, got {token!r}", path, line_no)


def parse_sdd_annotations(
    source: str | Path | IO[str] | Iterable[str], path: str | None = None
) -> list[AnnotationRecord]:
    """Parse an annotation stream into records, preserving row order.

    `source` may be a filesystem path, an open text stream, or any iterable
    of lines. Malformed rows, including non-finite coordinates and integers
    outside int64, raise ParseError naming the 1-based line number.
    """
    lines, inferred = _iter_lines(source)
    path = path or inferred
    records: list[AnnotationRecord] = []
    close = getattr(lines, "close", None)
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 10:
                raise ParseError(f"expected 10 fields, got {len(parts)}", path, line_no)
            quoted = parts[9]
            if len(quoted) < 2 or quoted[0] != '"' or quoted[-1] != '"':
                raise ParseError(f"label must be double-quoted, got {quoted!r}", path, line_no)
            label = canonical_class(quoted[1:-1])
            if label is None:
                raise ParseError(f"unknown class label {quoted[1:-1]!r}", path, line_no)
            records.append(
                AnnotationRecord(
                    track_id=_parse_int(parts[0], "track_id", path, line_no),
                    xmin=_parse_float(parts[1], "xmin", path, line_no),
                    ymin=_parse_float(parts[2], "ymin", path, line_no),
                    xmax=_parse_float(parts[3], "xmax", path, line_no),
                    ymax=_parse_float(parts[4], "ymax", path, line_no),
                    frame=_parse_int(parts[5], "frame", path, line_no),
                    lost=_parse_flag(parts[6], "lost", path, line_no),
                    occluded=_parse_flag(parts[7], "occluded", path, line_no),
                    generated=_parse_flag(parts[8], "generated", path, line_no),
                    label=label,
                )
            )
    finally:
        if close is not None and isinstance(source, (str, Path)):
            close()
    return records


def format_sdd_row(record: AnnotationRecord) -> str:
    """Inverse of parse for one record (numeric formatting normalized)."""

    def num(v: float) -> str:
        return str(int(v)) if float(v).is_integer() else repr(v)

    return (
        f"{record.track_id} {num(record.xmin)} {num(record.ymin)} "
        f"{num(record.xmax)} {num(record.ymax)} {record.frame} "
        f"{int(record.lost)} {int(record.occluded)} {int(record.generated)} "
        f'"{record.label}"'
    )


def assemble_trajectories(
    records: Sequence[AnnotationRecord],
    source: SourceRef,
    diagnostics: IngestDiagnostics | None = None,
) -> list[Trajectory]:
    """Group records by track id into frame-sorted trajectories.

    Centers are bounding-box midpoints. A track's class label is taken from
    its first frame; label changes mid-track are recorded in diagnostics.
    Duplicate (track, frame) pairs mean corrupt input.
    """
    n = len(records)

    def column(name: str, dtype) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), records), dtype, n)

    track_ids = column("track_id", np.int64)
    points = np.empty(n, POINT_DTYPE)
    points["frame"] = column("frame", np.int64)
    points["x"] = (column("xmin", np.float64) + column("xmax", np.float64)) / 2.0
    points["y"] = (column("ymin", np.float64) + column("ymax", np.float64)) / 2.0
    for flag in ("lost", "occluded", "generated"):
        points[flag] = column(flag, np.uint8)

    trajectories: list[Trajectory] = []
    for rows in split_tracks(track_ids, points["frame"]):
        track_id = int(track_ids[rows[0]])
        track = points[rows]
        frames = track["frame"]
        duplicate = np.flatnonzero(np.diff(frames) == 0)
        if duplicate.size:
            raise StructuralError(
                f"track {track_id} of {source.key()}: duplicate frame {frames[duplicate[0]]}"
            )
        labels_in_order = list(dict.fromkeys(records[i].label for i in rows))
        if diagnostics is not None and len(labels_in_order) > 1:
            diagnostics.label_changes[track_id] = labels_in_order
        trajectories.append(
            Trajectory(
                track_id=track_id,
                class_label=labels_in_order[0],
                points=track,
                source=source,
            )
        )
    if diagnostics is not None:
        diagnostics.rows += len(records)
        diagnostics.tracks += len(trajectories)
    return trajectories
