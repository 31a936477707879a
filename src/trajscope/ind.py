"""Parser for inD-style recordings.

A recording ships as three CSV files: tracks (per-frame rows in meters),
tracksMeta (per-track class and frame span), and recordingMeta (conversion
factor, location). Centers are converted to pixel space on load so that
downstream code sees one coordinate convention:

    x_px = x_m / factor        y_px = -y_m / factor

The y negation maps the dataset's upward-positive meter axis onto the
downward-positive pixel axis. inD has no lost/occluded/generated flags, so
all points carry zero flags. Non-finite numbers, and ids or frames that
are not integers or do not fit in int64, are parse errors naming the file
and line.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .types import POINT_DTYPE, ParseError, SourceRef, StructuralError, Trajectory, split_tracks

IND_CLASS_MAP = {
    "pedestrian": "Pedestrian",
    "bicycle": "Biker",
    "car": "Car",
    "truck_bus": "TruckBus",
}


def meters_to_pixels(x_m: float, y_m: float, factor: float) -> tuple[float, float]:
    return x_m / factor, -y_m / factor


def pixels_to_meters(x_px: float, y_px: float, factor: float) -> tuple[float, float]:
    return x_px * factor, -y_px * factor


def _open(source: str | Path | IO[str]) -> tuple[IO[str], str, bool]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.open("r", encoding="utf-8", newline=""), str(path), True
    return source, str(getattr(source, "name", "<input>")), False


def _reader(source: str | Path | IO[str], required: Iterable[str]):
    stream, path, owned = _open(source)
    reader = csv.DictReader(stream)
    fields = reader.fieldnames or []
    missing = [c for c in required if c not in fields]
    if missing:
        if owned:
            stream.close()
        raise ParseError(f"missing required column(s) {', '.join(missing)}", path, 1)
    return reader, stream, path, owned


def _float(row: dict, col: str, path: str, line_no: int) -> float:
    try:
        value = float(row[col])
    except (TypeError, ValueError):
        raise ParseError(f"column {col!r} is not numeric: {row.get(col)!r}", path, line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"column {col!r} is not finite: {row[col]!r}", path, line_no)
    return value


def _int(row: dict, col: str, path: str, line_no: int) -> int:
    """An int64 column; integral decimals such as "3.0" are accepted."""
    raw = row.get(col)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        try:
            number = float(raw)
        except (TypeError, ValueError):
            number = math.nan
        if not number.is_integer():
            raise ParseError(f"column {col!r} is not an integer: {raw!r}", path, line_no)
        value = int(number)
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"column {col!r} is out of the int64 range: {raw!r}", path, line_no)
    return value


def parse_ind_tracks(
    tracks: str | Path | IO[str],
    tracks_meta: str | Path | IO[str],
    recording_meta: str | Path | IO[str],
) -> list[Trajectory]:
    """Parse one recording triple into pixel-space trajectories.

    Raises StructuralError for cross-file inconsistencies: a track missing
    from tracksMeta, a non-positive conversion factor, duplicate frames,
    frame gaps within a track, or a frame count disagreeing with numFrames.
    """
    rec_reader, rec_stream, rec_path, rec_owned = _reader(
        recording_meta, ["recordingId", "orthoPxToMeter"]
    )
    try:
        rec_rows = list(rec_reader)
        if len(rec_rows) != 1:
            raise StructuralError(f"{rec_path}: expected exactly one recording row, got {len(rec_rows)}")
        rec_row = rec_rows[0]
        factor = _float(rec_row, "orthoPxToMeter", rec_path, 2)
        if factor <= 0:
            raise StructuralError(f"{rec_path}: orthoPxToMeter must be positive, got {factor}")
        recording_id = str(_int(rec_row, "recordingId", rec_path, 2))
        location = rec_row.get("locationId", "").strip() or "?"
    finally:
        if rec_owned:
            rec_stream.close()

    source = SourceRef(dataset="ind", scene=f"location{location}", video=recording_id)

    meta_reader, meta_stream, meta_path, meta_owned = _reader(
        tracks_meta, ["trackId", "numFrames", "class"]
    )
    classes: dict[int, str] = {}
    num_frames: dict[int, int] = {}
    try:
        for row in meta_reader:
            line_no = meta_reader.line_num
            track_id = _int(row, "trackId", meta_path, line_no)
            raw_class = (row["class"] or "").strip().lower()
            mapped = IND_CLASS_MAP.get(raw_class)
            if mapped is None:
                raise ParseError(f"unknown class {raw_class!r} for track {track_id}", meta_path, line_no)
            classes[track_id] = mapped
            num_frames[track_id] = _int(row, "numFrames", meta_path, line_no)
    finally:
        if meta_owned:
            meta_stream.close()

    tracks_reader, tracks_stream, tracks_path, tracks_owned = _reader(
        tracks, ["trackId", "frame", "xCenter", "yCenter"]
    )
    track_col, frame_col, x_m, y_m = [], [], [], []
    try:
        for row in tracks_reader:
            line_no = tracks_reader.line_num
            track_id = _int(row, "trackId", tracks_path, line_no)
            if track_id not in classes:
                raise StructuralError(
                    f"{tracks_path}: track {track_id} has no row in {meta_path}"
                )
            track_col.append(track_id)
            frame_col.append(_int(row, "frame", tracks_path, line_no))
            x_m.append(_float(row, "xCenter", tracks_path, line_no))
            y_m.append(_float(row, "yCenter", tracks_path, line_no))
    finally:
        if tracks_owned:
            tracks_stream.close()

    track_ids = np.array(track_col, dtype=np.int64)
    points = np.zeros(len(track_ids), POINT_DTYPE)
    points["frame"] = frame_col
    points["x"], points["y"] = meters_to_pixels(np.array(x_m), np.array(y_m), factor)

    trajectories: list[Trajectory] = []
    for rows in split_tracks(track_ids, points["frame"]):
        track_id = int(track_ids[rows[0]])
        track = points[rows]
        frames = track["frame"]
        steps = np.diff(frames)
        bad = np.flatnonzero(steps != 1)
        if bad.size:
            k = bad[0]
            if steps[k] == 0:
                raise StructuralError(f"track {track_id}: duplicate frame {frames[k]}")
            raise StructuralError(
                f"track {track_id}: frame gap between {frames[k]} and {frames[k + 1]}"
            )
        expected = num_frames[track_id]
        if len(track) != expected:
            raise StructuralError(
                f"track {track_id}: numFrames says {expected}, file has {len(track)} rows"
            )
        trajectories.append(
            Trajectory(
                track_id=track_id,
                class_label=classes[track_id],
                points=track,
                source=source,
            )
        )
    return trajectories
