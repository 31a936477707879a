"""Dataset characterization reports: lost-annotation frequency, class mix,
curated overlap metadata, and a heuristic for track ids that look like two
halves of the same individual. `reports` is the whole of `trajscope stats`
but the file writing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .preprocess import classify_lost_positions
from .registry import DatasetRegistry
from .types import IND_CLASSES, SDD_CLASSES, Trajectory, row_columns

DEFAULT_MAX_FRAME_GAP = 60
DEFAULT_MAX_SPATIAL_GAP = 50.0


@dataclass(frozen=True)
class LostStatsRow:
    """Per-scene share of trajectories with lost annotations, by position."""

    scene: str
    n_trajectories: int
    pct_lost_start: float
    pct_lost_middle: float
    pct_lost_end: float


@dataclass(frozen=True, eq=False)
class ClassDistributionRow:
    """Per-group share of unique tracks per class; percentages sum to 100."""

    scene: str
    n_tracks: int
    percentages: dict[str, float]


@dataclass(frozen=True)
class SplitCandidate:
    """A pair of track uids whose end/start line up in time and space."""

    predecessor: str
    successor: str
    frame_gap: int
    spatial_gap: float
    score: float


@dataclass(frozen=True)
class OverlapRow:
    """Curated overlap metadata for one scene, verbatim from the registry."""

    scene: str
    location_overlap: str
    time_overlap: str
    simultaneous_groups: tuple[tuple[int, ...], ...]


def group_trajectories_for_stats(
    trajectories: Iterable[Trajectory],
    registry: DatasetRegistry | None = None,
) -> dict[str, list[Trajectory]]:
    """Group for reporting: scene name, except inD recordings pool into their
    intersection ranges (e.g. "7-17") when a registry is supplied; a recording
    outside every range is a group of its own ("40-40")."""
    groups: dict[str, list[Trajectory]] = {}
    for traj in trajectories:
        if traj.source.dataset == "ind" and registry is not None:
            key = registry.intersection_of(traj.source.video)
        else:
            key = traj.source.scene
        groups.setdefault(key, []).append(traj)
    return groups


def lost_stats(
    groups: Mapping[str, Sequence[Trajectory]],
) -> list[LostStatsRow]:
    """Per group: trajectory count and percent flagged lost at start /
    strictly inside / at end. Empty groups are omitted. Run this on
    unfiltered native trajectories; filtering first would erase the flags
    being counted."""
    rows: list[LostStatsRow] = []
    for scene in sorted(groups):
        trajs = groups[scene]
        n = len(trajs)
        if n == 0:
            continue
        starts = middles = ends = 0
        for traj in trajs:
            pos = classify_lost_positions(traj)
            starts += pos.start
            middles += pos.middle
            ends += pos.end
        rows.append(
            LostStatsRow(
                scene=scene,
                n_trajectories=n,
                pct_lost_start=100.0 * starts / n,
                pct_lost_middle=100.0 * middles / n,
                pct_lost_end=100.0 * ends / n,
            )
        )
    return rows


def class_distribution(
    groups: Mapping[str, Sequence[Trajectory]],
    classes: Sequence[str] = SDD_CLASSES,
) -> list[ClassDistributionRow]:
    """Per group: percent of unique tracks per class.

    Segments split from one raw track share its identity, so they count
    once. Empty groups are omitted; unknown labels land in the total but in
    none of the reported classes, so the sum-to-100 invariant flags them.
    """
    rows: list[ClassDistributionRow] = []
    for scene in sorted(groups):
        seen: dict[tuple, str] = {}
        for traj in groups[scene]:
            seen[(traj.source.key(), traj.track_id)] = traj.class_label
        n = len(seen)
        if n == 0:
            continue
        counts = {c: 0 for c in classes}
        for label in seen.values():
            if label in counts:
                counts[label] += 1
        rows.append(
            ClassDistributionRow(
                scene=scene,
                n_tracks=n,
                percentages={c: 100.0 * counts[c] / n for c in classes},
            )
        )
    return rows


def detect_split_candidates(
    trajectories: Sequence[Trajectory],
    max_frame_gap: int = DEFAULT_MAX_FRAME_GAP,
    max_spatial_gap: float = DEFAULT_MAX_SPATIAL_GAP,
    frame_overlap_slack: int = 0,
) -> list[SplitCandidate]:
    """Pairs (A, B) where B starts close to where and when A ended.

    Emitted when -frame_overlap_slack <= first(B) - last(A) <= max_frame_gap
    and the end-to-start distance is within max_spatial_gap. The score
    rewards tight gaps: (1 - fgap/max_fgap) * (1 - sgap/max_sgap), with
    negative frame gaps treated as zero, so enlarging either gate only adds
    candidates. These are leads for manual review, not confirmed joins.
    """
    candidates: list[SplitCandidate] = []
    # (trajectory, (frame, x, y) of its first row, (frame, x, y) of its last row)
    cache = [
        (t, t.points[0].item()[:3], t.points[-1].item()[:3]) for t in trajectories if len(t)
    ]
    for pred, _, (end_frame, end_x, end_y) in cache:
        for succ, (start_frame, start_x, start_y), _ in cache:
            if pred is succ:
                continue
            frame_gap = start_frame - end_frame
            if not -frame_overlap_slack <= frame_gap <= max_frame_gap:
                continue
            spatial_gap = math.hypot(start_x - end_x, start_y - end_y)
            if spatial_gap > max_spatial_gap:
                continue
            score = (1.0 - max(frame_gap, 0) / max_frame_gap) * (
                1.0 - spatial_gap / max_spatial_gap
            )
            candidates.append(
                SplitCandidate(
                    predecessor=pred.uid,
                    successor=succ.uid,
                    frame_gap=int(frame_gap),
                    spatial_gap=float(spatial_gap),
                    score=float(score),
                )
            )
    candidates.sort(key=lambda c: (-c.score, c.predecessor, c.successor))
    return candidates


def overlap_report(registry: DatasetRegistry) -> list[OverlapRow]:
    """Location/time overlap levels and simultaneous-video groups per scene,
    copied verbatim from the registry's curated metadata."""
    rows: list[OverlapRow] = []
    for scene in registry.scenes():
        overlap = registry.scene_overlap(scene)
        rows.append(
            OverlapRow(
                scene=scene,
                location_overlap=overlap.location,
                time_overlap=overlap.time,
                simultaneous_groups=tuple(
                    tuple(group) for group in overlap.groups
                ),
            )
        )
    return rows


def reports(
    videos: Iterable[tuple[tuple[str, str, str], Iterable[Trajectory]]], registry: DatasetRegistry, dataset: str
) -> dict[str, tuple[dict[str, list], dict[str, int]]]:
    """The tables `trajscope stats` writes, by file name, each as its columns
    in order and the decimals of its float columns: `lost_stats` and
    `class_distribution` (the dataset's classes) per scene, or per registry
    intersection for inD, and on SDD the registry's `overlap_report`.
    `videos` yields each video's key and trajectories and is read once."""
    groups = group_trajectories_for_stats((t for _, video in videos for t in video), registry)
    lost = ("pct_lost_start", "pct_lost_middle", "pct_lost_end")
    tables = {
        "lost_stats": (row_columns(lost_stats(groups), ("scene", "n_trajectories", *lost)), dict.fromkeys(lost, 2))
    }
    classes = SDD_CLASSES if dataset == "sdd" else IND_CLASSES
    rows = class_distribution(groups, classes)
    columns = {**row_columns(rows, ("scene", "n_tracks")), **{c: [row.percentages[c] for row in rows] for c in classes}}
    tables["class_distribution"] = (columns, dict.fromkeys(classes, 2))
    if dataset == "sdd":
        overlap = ("scene", "location_overlap", "time_overlap", "simultaneous_groups")
        tables["overlap_report"] = (row_columns(overlap_report(registry), overlap), {})
    return tables
