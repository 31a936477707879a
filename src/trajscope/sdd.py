"""Parser and input-tree reader for SDD-style annotation files; `read_videos`
yields each video's trajectories with its ingest diagnostics, as the store writer takes them.

Row format: 10 whitespace-separated fields, newline-terminated:

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

lost/occluded/generated are 0/1; the label is double-quoted. Files reach
millions of rows, so a file is parsed column at once: one np.loadtxt call
reads the whole text into typed columns, array operations check them, and
the result is one numpy structured array of RECORD_DTYPE (the same fields,
with the label in its canonical spelling). Text that numpy might read
differently from `str.split`, or that fails a check, goes to the per-row
reader instead, which gives the same records for valid text and is the
only code that reports a bad row. Assembly works on the array's columns.
"""
from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field
from math import isfinite
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .types import (
    ALL_CLASSES,
    POINT_DTYPE,
    ParseError,
    SourceRef,
    StructuralError,
    Trajectory,
    canonical_class,
    claim_video,
    input_files,
    not_utf8,
    read_columns,
    split_tracks,
)

# One parsed annotation row. The flags are 0/1; the label is canonical.
RECORD_DTYPE = np.dtype(
    [
        ("track_id", np.int64),
        ("xmin", np.float64),
        ("ymin", np.float64),
        ("xmax", np.float64),
        ("ymax", np.float64),
        ("frame", np.int64),
        ("lost", np.uint8),
        ("occluded", np.uint8),
        ("generated", np.uint8),
        ("label", f"U{max(map(len, ALL_CLASSES))}"),
    ]
)
_FLAGS = ("lost", "occluded", "generated")
_BOX = ("xmin", "ymin", "xmax", "ymax")

# The text columns as numpy reads them: flags one byte wider than "0"/"1",
# labels one byte wider than the longest quoted class.
_TEXT_DTYPE = np.dtype(
    [(name, RECORD_DTYPE[name]) for name in ("track_id", *_BOX, "frame")]
    + [(flag, "S2") for flag in _FLAGS]
    + [("label", f"S{max(map(len, ALL_CLASSES)) + 3}")]
)
_PLAIN = bytes([ord("\t"), ord("\n"), ord("\r"), *range(0x20, 0x7F)])  # tab, line ends, printable ASCII


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
        return {**asdict(self), "label_changes": {str(k): v for k, v in sorted(self.label_changes.items())}}


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


def _parse_rows(lines: Iterable[str], path: str) -> np.ndarray:
    """The per-row reader: reads any valid text and names the first bad row."""
    records: list[tuple] = []
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
        record = (
            _parse_int(parts[0], "track_id", path, line_no),
            _parse_float(parts[1], "xmin", path, line_no),
            _parse_float(parts[2], "ymin", path, line_no),
            _parse_float(parts[3], "xmax", path, line_no),
            _parse_float(parts[4], "ymax", path, line_no),
            _parse_int(parts[5], "frame", path, line_no),
            parts[6] == "1",
            parts[7] == "1",
            parts[8] == "1",
            label,
        )
        for a, b in ((1, 3), (2, 4)):  # row positions of xmin/xmax and ymin/ymax
            if not isfinite(record[a] + record[b]):
                raise ParseError(
                    f"the center of fields {_BOX[a - 1]!r} and {_BOX[b - 1]!r} is not finite: "
                    f"{parts[a]!r}, {parts[b]!r}",
                    path,
                    line_no,
                )
        # Flags are checked after the numbers, so a row's first bad field is reported.
        for what, token in zip(_FLAGS, parts[6:9]):
            if token != "0" and token != "1":
                raise ParseError(f"field {what!r} must be 0 or 1, got {token!r}", path, line_no)
        records.append(record)
    return np.array(records, dtype=RECORD_DTYPE)


def _parse_columns(source: Path | bytes) -> np.ndarray | None:
    """The whole text at once, or None when a row needs `_parse_rows`.

    `source` is the text, or the file to read it from. A file is read here,
    so that only this frame holds its bytes and they are freed before the
    records are built: on CPython 3.10 an argument the caller computed
    lives until the call returns.

    Only printable ASCII, tab, newline and carriage return are let through,
    so numpy splits fields and lines where `str.split` and the line loop do
    (the text wrapper reads "\\r\\n" and a lone "\\r" as "\\n", as `read_text`
    does), and the byte columns lose nothing (numpy drops trailing NULs).
    Flags and labels are read one byte wider than any valid token, so a
    longer token cannot be cut down to a valid one.
    """
    data = source.read_bytes() if isinstance(source, Path) else source
    del source  # so that `del data` below frees the text
    if data.translate(None, _PLAIN):
        return None
    # Read through the bytes: a StringIO would copy the text at 4 bytes a character.
    columns = read_columns(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"), _TEXT_DTYPE)
    del data  # free the text before the larger records are built
    if columns is None:
        return None
    # A sum is finite only when both coordinates are, so this also rejects nan/inf.
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.isfinite(columns[a] + columns[b]).all() for a, b in zip(_BOX[:2], _BOX[2:]))
    if not finite:
        return None
    if not all(((columns[flag] == b"0") | (columns[flag] == b"1")).all() for flag in _FLAGS):
        return None
    quoted, inverse = np.unique(columns["label"], return_inverse=True)
    labels = [
        canonical_class(token[1:-1].decode()) if len(token) >= 2 and token[:1] == token[-1:] == b'"' else None
        for token in quoted.tolist()
    ]
    if None in labels:
        return None
    records = np.empty(len(columns), RECORD_DTYPE)
    for name in ("track_id", *_BOX, "frame"):
        records[name] = columns[name]
    for flag in _FLAGS:
        records[flag] = columns[flag] == b"1"
    for k, label in enumerate(labels):
        records["label"][inverse == k] = label
    return records


def parse_sdd_annotations(
    source: str | Path | IO[str] | Iterable[str], path: str | None = None
) -> np.ndarray:
    """Parse an annotation stream into a RECORD_DTYPE array, one row per line.

    `source` may be a filesystem path, an open text stream, or any iterable
    of lines. Blank lines are skipped; row order is preserved. Malformed
    rows, including non-finite coordinates, boxes whose center overflows,
    flags other than 0/1 and integers outside int64, raise ParseError naming
    the 1-based line number.
    """
    if isinstance(source, (str, Path)):
        path = path or str(Path(source))
        records = _parse_columns(Path(source))
        if records is not None:
            return records
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise not_utf8(source) from None
        return _parse_rows(io.StringIO(text), path)
    lines = list(source)
    # One line of text per element, stripped as `_parse_rows` strips it.
    text = "\n".join(line.strip() for line in lines)
    path = path or str(getattr(source, "name", "<input>"))
    # An element with a line break inside is one row to `_parse_rows`, two to numpy.
    one_row_each = text.isascii() and text.count("\n") + text.count("\r") < len(lines)
    records = _parse_columns(text.encode("ascii")) if one_row_each else None
    return _parse_rows(lines, path) if records is None else records


def assemble_trajectories(
    records: np.ndarray,
    source: SourceRef,
    diagnostics: IngestDiagnostics | None = None,
) -> list[Trajectory]:
    """Group RECORD_DTYPE rows by track id into frame-sorted trajectories.

    Centers are bounding-box midpoints. A track's class label is taken from
    its first frame; label changes mid-track are recorded in diagnostics.
    Duplicate (track, frame) pairs and non-finite centers mean corrupt input.
    """
    points = np.empty(len(records), POINT_DTYPE)
    points["frame"] = records["frame"]
    with np.errstate(over="ignore", invalid="ignore"):
        points["x"] = (records["xmin"] + records["xmax"]) / 2.0
        points["y"] = (records["ymin"] + records["ymax"]) / 2.0
    finite = np.isfinite(points["x"]) & np.isfinite(points["y"])
    for flag in _FLAGS:
        points[flag] = records[flag]

    trajectories: list[Trajectory] = []
    for track_id, rows, track in split_tracks(records["track_id"], points):
        frames = track["frame"]
        duplicate = np.flatnonzero(np.diff(frames) == 0)
        if duplicate.size:
            raise StructuralError(f"track {track_id} of {source.key()}: duplicate frame {frames[duplicate[0]]}")
        overflow = np.flatnonzero(~finite[rows])
        if overflow.size:
            raise StructuralError(
                f"track {track_id} of {source.key()}: box center at frame {frames[overflow[0]]} is not finite"
            )
        labels_in_order = list(dict.fromkeys(records["label"][rows].tolist()))
        if diagnostics is not None and len(labels_in_order) > 1:
            diagnostics.label_changes[track_id] = labels_in_order
        trajectories.append(Trajectory(track_id, labels_in_order[0], track, source))
    if diagnostics is not None:
        diagnostics.rows += len(records)
        diagnostics.tracks += len(trajectories)
    return trajectories


def read_videos(inputs: Sequence[Path]) -> Iterator[tuple[list[Trajectory], dict]]:
    """Each video's trajectories and its diagnostics (`IngestDiagnostics.to_dict`),
    one pair per <scene>/<video>/annotations.txt under `inputs`, in (scene,
    video) order. The files are found and claimed now; each is parsed when asked for."""
    files: dict[tuple[str, str], Path] = {}
    for path in input_files(inputs, "annotations.txt"):
        claim_video(files, (path.parent.parent.name, path.parent.name), path)

    def read(scene: str, video: str) -> tuple[list[Trajectory], dict]:
        diag = IngestDiagnostics()
        source = SourceRef("sdd", scene, video)
        trajectories = assemble_trajectories(parse_sdd_annotations(files[scene, video]), source, diag)
        return trajectories, diag.to_dict()

    return (read(*video) for video in sorted(files))
