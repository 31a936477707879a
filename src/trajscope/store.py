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
writer takes one video at a time, with its ingest diagnostics, which the
manifest lists for exactly the videos stored, and puts the files in place
only once all are written, so a failed write leaves an earlier store as it was.

The reader reads the layout the writer writes, and only that: each file in
one pass, each line's record by `json.loads` with its points cut out, and
the line's points by one numpy text read straight into POINT_DTYPE.
A file in any other layout is a StructuralError naming the file and line:
a line without `"points": [` as the writer spaces it, points that are not
a list of rows of six numbers of the fields' types, a truncated line.
(Spacing around the numbers inside a row is the one thing not checked.)
Such a line is refused as it is read. Then so is the first line, in file
order, that `_checked` refuses, which the writer refuses too, naming the
track: a record of another video than its manifest entry, a non-integer
or out-of-order `(track_id, segment)`, a class outside ALL_CLASSES, frames
not strictly increasing within a record, a non-finite coordinate, a flag
other than 0 and 1. The manifest must have this schema_version and list
each video once, in key order (checked before any file is opened), each
entry what `_entry` gives for the `video_filename` file read: name, counts.
"""
from __future__ import annotations

import json
from contextlib import suppress
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
        if not isinstance(part, str) or "__" in part or "/" in part or not part:
            raise StructuralError(f"source {source.key()} cannot name a store file")
    return f"{source.dataset}__{source.scene}__{source.video}.jsonl"


def _entry(source: SourceRef, n_trajectories, n_points) -> dict:
    """A video's manifest entry, as the writer writes it and the reader requires it."""
    return {**vars(source), "file": video_filename(source), "n_trajectories": n_trajectories, "n_points": n_points}


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


def write_store(videos: Iterable[tuple[Sequence[Trajectory], dict]], store_dir) -> dict:
    """Write one file per video, then the manifest, and return the manifest.

    `videos` yields one video at a time as a (trajectories, diagnostics)
    pair and is read lazily, so a caller that builds each video on demand
    holds one. A video's diagnostics go into the manifest under
    "<scene>/<video>" exactly when its file is written; a video without
    trajectories is skipped, diagnostics and all. Files are written as
    `<name>.partial` and renamed into place after the last video, the
    manifest last; on any error the partial files and the directories this
    call made are removed, so an earlier store is left as it was. Once the
    manifest is in place, every other `.jsonl` or `.partial` file in
    `store_dir` is removed: a re-ingest leaves only the videos it wrote.
    """
    store_path = Path(store_dir)
    created = [p for p in (store_path, *store_path.parents) if not p.exists()]  # deepest first
    entries: dict[tuple[str, str, str], dict] = {}
    diagnostics: dict[str, dict] = {}
    partials: list[Path] = []
    try:
        store_path.mkdir(parents=True, exist_ok=True)
        for trajs, diag in videos:
            if not trajs:
                continue
            trajs = sorted(trajs, key=lambda t: (t.track_id, t.segment))
            key = trajs[0].source.key()
            if key in entries:
                raise StructuralError(f"the trajectories of video {key} must come as one group")
            records = [(t.source.key(), (t.track_id, t.segment), t.class_label) for t in trajs]
            bad = _checked(records, [t.points for t in trajs], trajs[0].source)
            if bad:
                raise StructuralError(f"track {trajs[bad[0]].uid} of video {trajs[bad[0]].source.key()}: {bad[1]}")
            entries[key] = _entry(trajs[0].source, len(trajs), sum(len(t) for t in trajs))
            diagnostics["/".join(key[1:])] = diag
            partials.append(store_path / f"{entries[key]['file']}.partial")
            with open(partials[-1], "w") as fh:
                for traj in trajs:
                    fh.write(json.dumps(_trajectory_record(traj), sort_keys=True))
                    fh.write("\n")
            del trajs  # so the next group is built without this one
        if not entries:
            raise StructuralError("refusing to write an empty store")
        manifest = {
            "schema_version": STORE_SCHEMA_VERSION,
            "videos": [entries[key] for key in sorted(entries)],
            "diagnostics": diagnostics,
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
    listed = {entry["file"] for entry in manifest["videos"]}
    for stale in store_path.iterdir():  # files of an earlier store that this one does not list
        if stale.suffix in (".jsonl", ".partial") and stale.name not in listed:
            stale.unlink()
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


def _checked(records: Sequence[tuple], points: Sequence[np.ndarray], source: SourceRef) -> tuple | None:
    """(index, what is wrong) for the first record of a store file, in order, that
    breaks a rule, or None. Record i is (video key, (track_id, segment), class)
    and owns the POINT_DTYPE array points[i]; its metadata is checked before its
    rows: frame order, finite coordinates, flags."""
    last: tuple = ()  # the (track_id, segment) of the record before; () is below every pair
    for index, ((key, ident, label), rows) in enumerate(zip(records, points)):
        if key != source.key():
            return index, f"a record of another video than {source.key()}"
        if not all(type(v) is int for v in ident):
            return index, f"track_id and segment must be integers, got {ident}"
        if ident <= last:
            return index, f"(track_id, segment) {ident} does not follow {last}"
        if label not in ALL_CLASSES:
            return index, f"class {label!r} is not one of {ALL_CLASSES}"
        last = ident
        if (rows["frame"][1:] <= rows["frame"][:-1]).any():
            return index, "frames not strictly increasing"
        if not (np.isfinite(rows["x"]).all() and np.isfinite(rows["y"]).all()):
            return index, "a coordinate that is not finite"
        if ((rows["lost"] | rows["occluded"] | rows["generated"]) > 1).any():
            return index, "a flag that is not 0 or 1"
    return None


def _lines(path: Path) -> Iterator[tuple[int, tuple, str | None]]:
    """Each non-empty line of a store file: its number, its record (by `json.loads`
    with the points cut out) and its points list without the outer brackets,
    None if empty. An error names the line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                # Inside a JSON string a quote is escaped, so the first match is the key.
                key = line.find(_POINTS_KEY)
                if key < 0:
                    raise ValueError("no points list")
                start = key + len(_POINTS_KEY)  # just past the list's "["
                text, end = None, start + 1
                if not line.startswith("]", start):
                    close = line.find("]]", start)
                    if not line.startswith("[", start) or close < 0:
                        raise ValueError("the points are not a list of rows")
                    text, end = line[start + 1 : close], close + 2
                record = json.loads(line[: start - 1] + "0" + line[end:])
                video = (record["dataset"], record["scene"], record["video"])
                fields = (video, (record["track_id"], record["segment"]), record["class"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            yield line_no, fields, text


def _read_video(path: Path, source: SourceRef) -> list[Trajectory]:
    """The trajectories of one store file, in file order, from one pass over its
    lines: each line's points by one `read_columns` call, a line that cannot be
    read refused as it is read, then the records checked by `_checked`."""
    line_nos, records, arrays = [], [], []
    for line_no, record, text in _lines(path):
        rows = [] if text is None else text.split(_ROW_SEP)
        points = read_columns(rows, POINT_DTYPE, delimiter=",") if rows else np.empty(0, POINT_DTYPE)
        # numpy skips a blank line, so an empty row reads as one row too few
        if points is None or len(points) != len(rows):
            raise ValueError(f"line {line_no}: a point that is not a row of six numbers of the fields' types")
        line_nos.append(line_no)
        records.append(record)
        arrays.append(points)
    bad = _checked(records, arrays, source)
    if bad:
        raise ValueError(f"line {line_nos[bad[0]]}: {bad[1]}")
    return [
        Trajectory(track_id, label, points, source, segment)
        for (_, (track_id, segment), label), points in zip(records, arrays)
    ]


def load_store(store_dir) -> list[Trajectory]:
    """Read every trajectory back, in manifest order, each file checked once."""
    store_path = Path(store_dir)
    entries = load_manifest(store_path).get("videos")
    trajectories: list[Trajectory] = []
    path = store_path / MANIFEST_NAME
    try:
        if not isinstance(entries, list) or not entries or not all(isinstance(e, dict) for e in entries):
            raise ValueError("'videos' must be a non-empty list of objects")
        sources = [SourceRef(*(entry.get(name) for name in ("dataset", "scene", "video"))) for entry in entries]
        for before, source in zip([None, *sources], sources):
            video_filename(source)  # refuses a key that is not three strings a file name can hold
            if before and source.key() <= before.key():
                raise ValueError(f"video {source.key()} does not follow {before.key()}")
        for entry, source in zip(entries, sources):
            path = store_path / video_filename(source)
            video = _read_video(path, source)
            path = store_path / MANIFEST_NAME
            expected = _entry(source, len(video), sum(len(t) for t in video))
            for name in sorted(entry.keys() | expected.keys()):
                got, want = entry.get(name), expected.get(name)
                if type(got) is not type(want) or got != want:
                    raise ValueError(f"video {source.key()}: {name} is {got!r}, expected {want!r}")
            trajectories += video
    except (OSError, KeyError, TypeError, ValueError, OverflowError, StructuralError) as exc:
        raise StructuralError(f"corrupt store file {path}: {exc}")
    return trajectories


def videos(store_dir) -> Iterator[tuple[tuple[str, str, str], list[Trajectory]]]:
    """Each video's key and trajectories, in the store's key order, from one
    `load_store` call: the benchmark tracer's `store.load` span counts those
    calls, so reading a file at a time waits for a span of its own."""
    for key, group in groupby(load_store(store_dir), key=lambda t: t.source.key()):
        yield key, list(group)
