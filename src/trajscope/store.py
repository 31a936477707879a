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
are written, so a failed write leaves an earlier store as it was. Loading
checks the manifest's schema_version and that frames strictly increase.
"""
from __future__ import annotations

import json
from contextlib import suppress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .types import POINT_DTYPE, SourceRef, StructuralError, Trajectory

STORE_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"


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


def _trajectory_from_record(record: dict) -> Trajectory:
    return Trajectory(
        track_id=int(record["track_id"]),
        class_label=str(record["class"]),
        points=np.array(list(map(tuple, record["points"])), dtype=POINT_DTYPE),
        source=SourceRef(
            dataset=str(record["dataset"]),
            scene=str(record["scene"]),
            video=str(record["video"]),
        ),
        segment=int(record["segment"]),
    )


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
                    fh.write(json.dumps(_trajectory_record(traj), sort_keys=True))
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


def load_store(store_dir) -> list[Trajectory]:
    """Read every trajectory back, in manifest order, and validate each."""
    store_path = Path(store_dir)
    manifest = load_manifest(store_path)
    trajectories: list[Trajectory] = []
    file_path = store_path / MANIFEST_NAME  # blamed for a malformed video list
    try:
        for entry in manifest["videos"]:
            file_path = store_path / entry["file"]
            with open(file_path) as fh:
                for line in fh:
                    if line.strip():
                        traj = _trajectory_from_record(json.loads(line))
                        traj.validate()
                        trajectories.append(traj)
    except (OSError, KeyError, TypeError, ValueError, OverflowError, StructuralError) as exc:
        raise StructuralError(f"corrupt store file {file_path}: {exc}")
    return trajectories
