"""Intermediate trajectory store: one JSONL file per video plus a manifest.

Raw annotation parsing is the slowest part of the pipeline, so ingestion
serializes assembled trajectories once and every later command reads this
store instead of the raw files. One line per trajectory:

    {"track_id": 1, "segment": 0, "class": "Pedestrian",
     "dataset": "sdd", "scene": "quad", "video": "video0",
     "points": [[frame, x, y, lost, occluded, generated], ...]}

"points" holds the rows of the trajectory's POINT_DTYPE array, in the
array's field order, with flags as 0/1. Records are sorted, keys too, with
no timestamps, so identical inputs produce byte-identical stores. The
writer takes one video at a time and puts the files in place only once all
are written, so a failed write leaves an earlier store as it was.

The reader reads the layout the writer writes, and only that: each file in
one pass, each line's record by `json.loads` with its points cut out, and
all the points of a file by one numpy text read straight into POINT_DTYPE.
A file in any other layout is a StructuralError naming the file: a line
without `"points": [` as the writer spaces it, points that are not a list
of rows of six numbers of the fields' types, a truncated line. (Spacing
around the numbers inside a row is the one thing not checked.) So is, at
its line, what the writer cannot write: a record of another video than
its manifest entry, a non-integer or out-of-order `(track_id, segment)`,
a class outside ALL_CLASSES, frames not strictly increasing within a
record, a non-finite coordinate, a flag other than 0 and 1. Loading also
checks the manifest's schema_version; nothing after it checks the data.
"""
from __future__ import annotations

import json
from contextlib import suppress
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .types import ALL_CLASSES, POINT_DTYPE, SourceRef, StructuralError, Trajectory, read_columns

STORE_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
# as the writer spaces them: the points key (sorted between "dataset" and
# "scene") and the separator of two rows
_POINTS_KEY = '"points": ['
_ROW_SEP = "], ["


def video_filename(source: SourceRef) -> str:
    for part in source.key():
        if "__" in part or "/" in part or not part:
            raise StructuralError(f"source {source.key()} cannot name a store file")
    return f"{source.dataset}__{source.scene}__{source.video}.jsonl"


def _trajectory_record(traj: Trajectory) -> dict:
    return {
        "track_id": traj.track_id,
        "segment": traj.segment,
        "class": traj.class_label,
        "dataset": traj.source.dataset,
        "scene": traj.source.scene,
        "video": traj.source.video,
        "points": traj.points.tolist(),
    }


def write_store(
    videos: Iterable[Sequence[Trajectory]] | Sequence[Trajectory],
    store_dir,
    diagnostics: Mapping[str, dict] | None = None,
) -> dict:
    """Write one file per video, then the manifest, and return the manifest.

    `videos` yields one video's trajectories at a time and is read lazily,
    so a caller that builds each group on demand holds one video; a flat
    sequence of trajectories is grouped first. `diagnostics` is read after
    the last group. Files are written as `<name>.partial` and renamed into
    place after the last group, the manifest last; on any error the partial
    files and the directories this call made are removed, so an earlier
    store is left as it was.
    """
    if isinstance(videos, Sequence) and all(isinstance(t, Trajectory) for t in videos):
        by_video: dict[tuple[str, str, str], list[Trajectory]] = {}
        for traj in videos:
            by_video.setdefault(traj.source.key(), []).append(traj)
        videos = list(by_video.values())
    store_path = Path(store_dir)
    created = [p for p in (store_path, *store_path.parents) if not p.exists()]  # deepest first
    entries: dict[tuple[str, str, str], dict] = {}
    partials: list[Path] = []
    try:
        store_path.mkdir(parents=True, exist_ok=True)
        for trajs in videos:
            if not trajs:
                continue
            key = trajs[0].source.key()
            if key in entries or any(t.source.key() != key for t in trajs):
                raise StructuralError(f"the trajectories of video {key} must come as one group")
            trajs = sorted(trajs, key=lambda t: (t.track_id, t.segment))
            filename = video_filename(trajs[0].source)
            partials.append(store_path / f"{filename}.partial")
            with open(partials[-1], "w") as fh:
                for traj in trajs:
                    try:  # NaN and Infinity are not JSON
                        fh.write(json.dumps(_trajectory_record(traj), sort_keys=True, allow_nan=False))
                    except ValueError:
                        raise StructuralError(f"track {traj.uid} of video {key}: a point that is not finite") from None
                    fh.write("\n")
            entries[key] = {
                "dataset": key[0],
                "scene": key[1],
                "video": key[2],
                "file": filename,
                "n_trajectories": len(trajs),
                "n_points": sum(len(t) for t in trajs),
            }
            del trajs  # so the next group is built without this one
        if not entries:
            raise StructuralError("refusing to write an empty store")
        manifest = {
            "schema_version": STORE_SCHEMA_VERSION,
            "videos": [entries[key] for key in sorted(entries)],
            "diagnostics": dict(diagnostics) if diagnostics else {},
        }
        partials.append(store_path / f"{MANIFEST_NAME}.partial")
        with open(partials[-1], "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        for partial in partials:
            partial.replace(partial.with_suffix(""))
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        for directory in created:
            with suppress(OSError):  # mkdir may have failed before making it
                directory.rmdir()
        raise
    return manifest


def load_manifest(store_dir) -> dict:
    store_path = Path(store_dir)
    manifest_path = store_path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StructuralError(
            f"no ingested store at {store_path}: run the ingest command first"
        )
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError:
            manifest = None
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if version != STORE_SCHEMA_VERSION:
        raise StructuralError(
            f"store {store_path} is not a schema_version {STORE_SCHEMA_VERSION} store "
            f"(found {version!r}): re-run the ingest command"
        )
    return manifest


def _rows(points_text: list[str]) -> Iterator[str]:
    """Each row of each points list, in order. A list is dropped from
    `points_text` once split, so the text is freed as numpy reads it."""
    points_text.reverse()
    while points_text:
        yield from points_text.pop().split(_ROW_SEP)


def _read_video(path: Path, source: SourceRef) -> list[Trajectory]:
    """The trajectories of one store file, in file order, checked.

    Each line is parsed by `json.loads` with its points list cut out, and
    its record checked against `source` and the line before; the points of
    all lines are then read by one `read_columns` call, checked as one
    array, and split by each line's row count.
    """
    records: list[tuple[dict, int, int]] = []  # each line's record, row count and line number
    points_text: list[str] = []  # each non-empty points list, without its outer brackets
    last: tuple = ()  # the (track_id, segment) of the line before; () is below every pair
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            # Inside a JSON string a quote is escaped, so the first match is the key.
            key = line.find(_POINTS_KEY)
            if key < 0:
                raise ValueError(f"line {line_no}: no points list")
            start = key + len(_POINTS_KEY)  # just past the list's "["
            if line.startswith("]", start):
                end, n_rows = start + 1, 0
            else:
                close = line.find("]]", start)
                if not line.startswith("[", start) or close < 0:
                    raise ValueError(f"line {line_no}: the points are not a list of rows")
                points_text.append(line[start + 1 : close])
                end, n_rows = close + 2, points_text[-1].count(_ROW_SEP) + 1
            record = json.loads(line[: start - 1] + "0" + line[end:])
            ident = (record["track_id"], record["segment"])
            if (record["dataset"], record["scene"], record["video"]) != source.key():
                raise ValueError(f"line {line_no}: a record of another video than {source.key()}")
            if not all(type(v) is int for v in ident):
                raise ValueError(f"line {line_no}: track_id and segment must be integers, got {ident}")
            if ident <= last:
                raise ValueError(f"line {line_no}: (track_id, segment) {ident} does not follow {last}")
            if record["class"] not in ALL_CLASSES:
                raise ValueError(f"line {line_no}: class {record['class']!r} is not one of {ALL_CLASSES}")
            records.append((record, n_rows, line_no))
            last = ident
    ends = np.cumsum([n_rows for _, n_rows, _ in records], dtype=np.int64)
    total = int(ends[-1]) if records else 0
    points = np.empty(0, POINT_DTYPE)
    if total:
        points = read_columns(_rows(points_text), POINT_DTYPE, delimiter=",")
        # numpy skips a blank line, so an empty row reads as one row too few
        if points is None or len(points) != total:
            raise ValueError("a point that is not a row of six numbers of the fields' types")
    frames = points["frame"]
    falls = np.concatenate(([False], frames[1:] <= frames[:-1]))
    falls[ends[ends < total]] = False  # a record's first row follows another record
    for bad, what in (
        (falls, "frames not strictly increasing"),
        (~(np.isfinite(points["x"]) & np.isfinite(points["y"])), "a coordinate that is not finite"),
        ((points["lost"] | points["occluded"] | points["generated"]) > 1, "a flag that is not 0 or 1"),
    ):
        if bad.any():
            raise ValueError(f"line {records[np.searchsorted(ends, bad.argmax(), 'right')][2]}: {what}")
    return [
        Trajectory(record["track_id"], record["class"], points[stop - n_rows : stop], source, record["segment"])
        for (record, n_rows, _), stop in zip(records, ends)
    ]


def load_store(store_dir) -> list[Trajectory]:
    """Read every trajectory back, in manifest order, each file checked once."""
    store_path = Path(store_dir)
    manifest = load_manifest(store_path)
    trajectories: list[Trajectory] = []
    file_path = store_path / MANIFEST_NAME  # blamed for a malformed video list
    try:
        for entry in manifest["videos"]:
            file_path = store_path / entry["file"]
            source = SourceRef(*(str(entry[name]) for name in ("dataset", "scene", "video")))
            trajectories += _read_video(file_path, source)
    except (OSError, KeyError, TypeError, ValueError, OverflowError, StructuralError) as exc:
        raise StructuralError(f"corrupt store file {file_path}: {exc}")
    return trajectories
