"""Parser and input-tree reader (`read_videos`) for inD-style recordings.

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

The tracks file is the large one: its four used columns are read at once
by one np.loadtxt call and checked as arrays. If numpy cannot read them
(a bad value, a short row, an id written as "3.0") or the header repeats
a name, the per-row csv reader reads the file instead; it reports the
first bad row. The two meta files are small and always read with csv.
"""
from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .types import (
    POINT_DTYPE,
    ConfigError,
    ParseError,
    SourceRef,
    StructuralError,
    Trajectory,
    claim_video,
    input_files,
    not_utf8,
    read_columns,
    split_tracks,
)

IND_CLASS_MAP = {
    "pedestrian": "Pedestrian",
    "bicycle": "Biker",
    "car": "Car",
    "truck_bus": "TruckBus",
}


_TRACK_COLUMNS = ("trackId", "frame", "xCenter", "yCenter")
_TRACK_DTYPE = np.dtype(
    [("trackId", np.int64), ("frame", np.int64), ("xCenter", np.float64), ("yCenter", np.float64)]
)


def meters_to_pixels(x_m: float, y_m: float, factor: float) -> tuple[float, float]:
    return x_m / factor, -y_m / factor


def pixels_to_meters(x_px: float, y_px: float, factor: float) -> tuple[float, float]:
    return x_px * factor, -y_px * factor


@contextmanager
def _opened(source: str | Path | IO[str]) -> Iterator[tuple[IO[str], str]]:
    """A text stream from the start of the source, which can be rewound, and its name.

    A file is opened as csv wants it (newline=""); a stream is read into
    memory. A file that is not UTF-8 ends as a ParseError naming its line.
    """
    if isinstance(source, (str, Path)):
        stream, path = Path(source).open("r", encoding="utf-8", newline=""), str(Path(source))
    else:
        stream, path = io.StringIO(source.read(), newline=""), str(getattr(source, "name", "<input>"))
    with stream:
        try:
            yield stream, path
        except UnicodeDecodeError:
            raise not_utf8(source) from None


def _reader(stream: IO[str], path: str, required: Iterable[str]) -> csv.DictReader:
    """A DictReader past the header, which must name every required column."""
    reader = csv.DictReader(stream)
    fields = reader.fieldnames or []
    missing = [c for c in required if c not in fields]
    if missing:
        raise ParseError(f"missing required column(s) {', '.join(missing)}", path, 1)
    return reader


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


def _read_track_rows(
    reader: csv.DictReader, path: str, classes: dict[int, str], meta_path: str
) -> np.ndarray:
    """The per-row reader of the tracks file: reads any valid row, names the first bad one."""
    rows: list[tuple] = []
    for row in reader:
        line_no = reader.line_num
        track_id = _int(row, "trackId", path, line_no)
        if track_id not in classes:
            raise StructuralError(f"{path}: track {track_id} has no row in {meta_path}")
        rows.append(
            (
                track_id,
                _int(row, "frame", path, line_no),
                _float(row, "xCenter", path, line_no),
                _float(row, "yCenter", path, line_no),
            )
        )
    return np.array(rows, dtype=_TRACK_DTYPE)


def _track_columns(stream: IO[str], fields: list[str]) -> np.ndarray | None:
    """The tracks file's four columns at once, or None when a row needs `_read_track_rows`."""
    # csv reads a duplicated name from its last column, usecols from the first.
    if len(set(fields)) != len(fields):
        return None
    columns = read_columns(
        stream,
        _TRACK_DTYPE,
        delimiter=",",
        quotechar='"',
        usecols=[fields.index(c) for c in _TRACK_COLUMNS],
    )
    if columns is None or not all(np.isfinite(columns[c]).all() for c in ("xCenter", "yCenter")):
        return None
    return columns


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
    with _opened(recording_meta) as (stream, rec_path):
        rec_rows = list(_reader(stream, rec_path, ["recordingId", "orthoPxToMeter"]))
    if len(rec_rows) != 1:
        raise StructuralError(f"{rec_path}: expected exactly one recording row, got {len(rec_rows)}")
    rec_row = rec_rows[0]
    factor = _float(rec_row, "orthoPxToMeter", rec_path, 2)
    if factor <= 0:
        raise StructuralError(f"{rec_path}: orthoPxToMeter must be positive, got {factor}")
    recording_id = str(_int(rec_row, "recordingId", rec_path, 2))
    location = rec_row.get("locationId", "").strip() or "?"

    source = SourceRef(dataset="ind", scene=f"location{location}", video=recording_id)

    classes: dict[int, str] = {}
    num_frames: dict[int, int] = {}
    with _opened(tracks_meta) as (stream, meta_path):
        meta_reader = _reader(stream, meta_path, ["trackId", "numFrames", "class"])
        for row in meta_reader:
            line_no = meta_reader.line_num
            track_id = _int(row, "trackId", meta_path, line_no)
            raw_class = (row["class"] or "").strip().lower()
            mapped = IND_CLASS_MAP.get(raw_class)
            if mapped is None:
                raise ParseError(f"unknown class {raw_class!r} for track {track_id}", meta_path, line_no)
            classes[track_id] = mapped
            num_frames[track_id] = _int(row, "numFrames", meta_path, line_no)

    with _opened(tracks) as (stream, tracks_path):
        columns = _track_columns(stream, _reader(stream, tracks_path, _TRACK_COLUMNS).fieldnames)
        if columns is None:
            stream.seek(0)
            tracks_reader = _reader(stream, tracks_path, _TRACK_COLUMNS)
            columns = _read_track_rows(tracks_reader, tracks_path, classes, meta_path)
    track_ids = columns["trackId"]
    # The row reader stops at the first unknown track; name it for the column reader too.
    unknown = np.flatnonzero(~np.isin(track_ids, list(classes)))
    if unknown.size:
        raise StructuralError(f"{tracks_path}: track {track_ids[unknown[0]]} has no row in {meta_path}")

    points = np.zeros(len(track_ids), POINT_DTYPE)
    points["frame"] = columns["frame"]
    points["x"], points["y"] = meters_to_pixels(columns["xCenter"], columns["yCenter"], factor)

    trajectories: list[Trajectory] = []
    for track_id, _, track in split_tracks(track_ids, points):
        frames = track["frame"]
        steps = np.diff(frames)
        bad = np.flatnonzero(steps != 1)
        where = f"track {track_id} of {source.key()}"
        if bad.size:
            k = bad[0]
            if steps[k] == 0:
                raise StructuralError(f"{where}: duplicate frame {frames[k]}")
            raise StructuralError(f"{where}: frame gap between {frames[k]} and {frames[k + 1]}")
        expected = num_frames[track_id]
        if len(track) != expected:
            raise StructuralError(f"{where}: numFrames says {expected}, file has {len(track)} rows")
        trajectories.append(Trajectory(track_id, classes[track_id], track, source))
    return trajectories


def read_videos(inputs: Sequence[Path], diagnostics: dict[str, dict]) -> Iterator[list[Trajectory]]:
    """Each recording's trajectories, one list per <prefix>_tracks.csv under
    `inputs` with its _tracksMeta.csv and _recordingMeta.csv beside it, in path
    order. The files are found now; each recording is parsed when asked for,
    then claimed as its source's <scene>/<video> and sets that diagnostics
    entry, unless it has no tracks."""
    triples = []
    for tracks in sorted(input_files(inputs, "*_tracks.csv")):
        prefix = tracks.name[: -len("_tracks.csv")]
        companions = [tracks.with_name(f"{prefix}_{name}.csv") for name in ("tracksMeta", "recordingMeta")]
        for required in companions:
            if not required.is_file():
                raise ConfigError(f"missing companion file: {required}")
        triples.append((tracks, *companions))
    claimed: dict[tuple[str, str], Path] = {}

    def read(tracks: Path, meta: Path, recording: Path) -> list[Trajectory]:
        trajectories = parse_ind_tracks(tracks, meta, recording)
        if trajectories:
            video = trajectories[0].source.key()[1:]
            claim_video(claimed, video, tracks)
            diagnostics["/".join(video)] = {"tracks_file": tracks.name, "n_trajectories": len(trajectories)}
        return trajectories

    return (read(*triple) for triple in triples)
