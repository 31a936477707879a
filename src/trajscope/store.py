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
A file in any other layout is a StructuralError naming the file and line:
a line without `"points": [` as the writer spaces it, points that are not
a list of rows of six numbers of the fields' types, a truncated line.
(Spacing around the numbers inside a row is the one thing not checked.)
So is what `_checked` refuses, which the writer refuses too, naming the
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
    store is left as it was. Once the manifest is in place, every other
    `.jsonl` or `.partial` file in `store_dir` is removed: a re-ingest leaves
    only the videos it wrote.
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
            trajs = sorted(trajs, key=lambda t: (t.track_id, t.segment))
            key = trajs[0].source.key()
            if key in entries:
                raise StructuralError(f"the trajectories of video {key} must come as one group")
            records = [(t.source.key(), (t.track_id, t.segment), t.class_label) for t in trajs]
            ends = np.cumsum([len(t) for t in trajs], dtype=np.int64)
            bad = _checked(records, np.concatenate([t.points for t in trajs]), ends, trajs[0].source)
            if bad:
                raise StructuralError(f"track {trajs[bad[0]].uid} of video {trajs[bad[0]].source.key()}: {bad[1]}")
            entries[key] = _entry(trajs[0].source, len(trajs), int(ends[-1]))
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


def _rows(points_text: list[str]) -> Iterator[str]:
    """Each row of each points list, in order. A list is dropped from
    `points_text` once split, so the text is freed as numpy reads it."""
    points_text.reverse()
    while points_text:
        yield from points_text.pop().split(_ROW_SEP)


def _checked(records: Sequence[tuple], points: np.ndarray, ends: np.ndarray, source: SourceRef) -> tuple | None:
    """(index, what is wrong) for the first record of a store file that breaks a
    rule, or None. Record i is (video key, (track_id, segment), class) and owns
    the rows of `points` before ends[i] and from ends[i - 1] on."""
    last: tuple = ()  # the (track_id, segment) of the record before; () is below every pair
    for index, (key, ident, label) in enumerate(records):
        if key != source.key():
            return index, f"a record of another video than {source.key()}"
        if not all(type(v) is int for v in ident):
            return index, f"track_id and segment must be integers, got {ident}"
        if ident <= last:
            return index, f"(track_id, segment) {ident} does not follow {last}"
        if label not in ALL_CLASSES:
            return index, f"class {label!r} is not one of {ALL_CLASSES}"
        last = ident
    frames = points["frame"]
    falls = np.concatenate(([False], frames[1:] <= frames[:-1]))
    falls[ends[ends < len(points)]] = False  # a record's first row follows another record
    for bad, what in (
        (falls, "frames not strictly increasing"),
        (~(np.isfinite(points["x"]) & np.isfinite(points["y"])), "a coordinate that is not finite"),
        ((points["lost"] | points["occluded"] | points["generated"]) > 1, "a flag that is not 0 or 1"),
    ):
        if bad.any():
            return int(np.searchsorted(ends, bad.argmax(), "right")), what
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
    """The trajectories of one store file, in file order, checked by `_checked`
    on the points of all lines, read by one `read_columns` call. If numpy
    cannot read them, a second read, a line at a time, names the bad line."""
    line_nos, records, points_text, counts = [], [], [], []
    for line_no, record, text in _lines(path):
        line_nos.append(line_no)
        records.append(record)
        counts.append(0 if text is None else text.count(_ROW_SEP) + 1)
        points_text += [] if text is None else [text]
    ends = np.cumsum(counts, dtype=np.int64)
    points = np.empty(0, POINT_DTYPE)
    if points_text:
        points = read_columns(_rows(points_text), POINT_DTYPE, delimiter=",")
        # numpy skips a blank line, so an empty row reads as one row too few
        if points is None or len(points) != ends[-1]:
            for line_no, _, text in _lines(path):
                rows = [] if text is None else text.split(_ROW_SEP)
                read = read_columns(rows, POINT_DTYPE, delimiter=",") if rows else rows
                if read is None or len(read) != len(rows):
                    raise ValueError(f"line {line_no}: a point that is not a row of six numbers of the fields' types")
            raise ValueError("a point that is not a row of six numbers of the fields' types")
    bad = _checked(records, points, ends, source)
    if bad:
        raise ValueError(f"line {line_nos[bad[0]]}: {bad[1]}")
    return [
        Trajectory(track_id, label, points[stop - n_rows : stop], source, segment)
        for (_, (track_id, segment), label), n_rows, stop in zip(records, counts, ends)
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
