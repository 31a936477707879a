"""Seeded input trees with planted answers.

Each writer puts raw annotation files of a known make-up under a directory
and returns the tables `trajscope stats` must write for them, as their CSV
files read: a header row, then one row per scene (SDD) or per intersection
(inD), in the order the CSV holds them. The answers come from what was
planted, not from the code under test: which tracks have lost points at
their start, strictly inside, or at their end, and how many tracks of each
class each video holds. The seed picks the rest (track lengths, first
frames, positions, where each lost run falls, the row order in a file),
and one seed always writes the same bytes.
"""
from __future__ import annotations

import random
from pathlib import Path

SDD_CLASSES = ("Pedestrian", "Biker", "Skater", "Cart", "Car", "Bus")
IND_CLASSES = ("Pedestrian", "Biker", "Car", "TruckBus")
IND_RAW_CLASS = {"Pedestrian": "pedestrian", "Biker": "bicycle", "Car": "car", "TruckBus": "truck_bus"}

# (scene, video) -> tracks per class. Track ids restart at 0 in each video,
# so two videos of a scene share ids and still count as different tracks.
SDD_VIDEOS: dict[tuple[str, str], dict[str, int]] = {
    ("deathcircle", "video0"): {"Pedestrian": 5, "Biker": 3, "Skater": 1, "Cart": 1},
    ("deathcircle", "video1"): {"Pedestrian": 2, "Biker": 4, "Car": 1, "Bus": 1},
    ("quad", "video0"): {"Pedestrian": 6, "Skater": 2, "Cart": 1},
}
# recording id -> (location id, tracks per class); 7 and 12 pool into the
# intersection 7-17 of the bundled registry, 18 is the only one of 18-29
IND_RECORDINGS: dict[int, tuple[int, dict[str, int]]] = {
    7: (2, {"Pedestrian": 4, "Biker": 2, "Car": 3}),
    12: (2, {"Pedestrian": 1, "Car": 2, "TruckBus": 1}),
    18: (3, {"Pedestrian": 3, "Biker": 1, "Car": 1, "TruckBus": 2}),
}
IND_INTERSECTIONS = ((7, 17), (18, 29))

# Where a track's points are lost: (start, strictly inside, end). The eight
# mixes of the three runs, then a track lost throughout ("whole"), which
# counts as lost at its start and at its end but not inside.
LOST_PATTERNS = [(bool(k & 4), bool(k & 2), bool(k & 1)) for k in range(8)] + ["whole"]
WHOLE_COUNTS_AS = (True, False, True)


def _percent(count: int, total: int) -> str:
    return f"{100 * count / total:.2f}"


def _classes(rng: random.Random, mix: dict[str, int]) -> list[str]:
    """The class of each track of a video, in track id order."""
    labels = [label for label, count in mix.items() for _ in range(count)]
    rng.shuffle(labels)
    return labels


def _lost_flags(rng: random.Random, length: int, pattern) -> list[int]:
    """0/1 per point of a track of `length` points, lost where `pattern` says."""
    if pattern == "whole":
        return [1] * length
    start, inside, end = pattern
    lost = [0] * length
    head = rng.randint(1, 4) if start else 0
    tail = rng.randint(1, 4) if end else 0
    lost[:head] = [1] * head
    lost[length - tail :] = [1] * tail
    if inside:  # at least one kept point on each side of the run
        run = rng.randint(1, 4)
        first = rng.randint(head + 1, length - tail - 1 - run)
        lost[first : first + run] = [1] * run
    return lost


def sdd_tree(root: Path, seed: int) -> dict[str, list[list[str]]]:
    """Write <root>/<scene>/<video>/annotations.txt for each of SDD_VIDEOS and
    return the `lost_stats` and `class_distribution` rows. Track i of a video
    takes LOST_PATTERNS[(i + offset) % 9], the offset drawn per video, so each
    video of nine or more tracks holds every pattern."""
    rng = random.Random(seed)
    per_scene: dict[str, dict] = {}
    for (scene, video), mix in SDD_VIDEOS.items():
        totals = per_scene.setdefault(scene, {"n": 0, "lost": [0, 0, 0], "classes": dict.fromkeys(SDD_CLASSES, 0)})
        offset = rng.randrange(len(LOST_PATTERNS))
        rows = []
        for track_id, label in enumerate(_classes(rng, mix)):
            pattern = LOST_PATTERNS[(track_id + offset) % len(LOST_PATTERNS)]
            length = rng.randint(20, 60)
            lost = _lost_flags(rng, length, pattern)
            first_frame = rng.randint(0, 100)
            x, y = rng.randint(50, 1000), rng.randint(50, 1000)
            for step, flag in enumerate(lost):
                x, y = x + rng.randint(-3, 3), y + rng.randint(-3, 3)
                half = rng.randint(2, 20)
                occluded, generated = rng.randint(0, 1), rng.randint(0, 1)
                rows.append(
                    f"{track_id} {x - half} {y - half} {x + half} {y + half} "
                    f'{first_frame + step} {flag} {occluded} {generated} "{label}"'
                )
            totals["n"] += 1
            for k, flag in enumerate(WHOLE_COUNTS_AS if pattern == "whole" else pattern):
                totals["lost"][k] += flag
            totals["classes"][label] += 1
        rng.shuffle(rows)  # the reader sorts each track by frame
        path = root / scene / video / "annotations.txt"
        path.parent.mkdir(parents=True)
        path.write_text("\n".join(rows) + "\n")
    lost_stats = [["scene", "n_trajectories", "pct_lost_start", "pct_lost_middle", "pct_lost_end"]]
    classes = [["scene", "n_tracks", *SDD_CLASSES]]
    for scene, totals in sorted(per_scene.items()):
        n = totals["n"]
        lost_stats.append([scene, str(n), *(_percent(count, n) for count in totals["lost"])])
        classes.append([scene, str(n), *(_percent(count, n) for count in totals["classes"].values())])
    return {"lost_stats": lost_stats, "class_distribution": classes}


def ind_tree(root: Path, seed: int) -> dict[str, list[list[str]]]:
    """Write the three files of each of IND_RECORDINGS under `root` and return
    the `lost_stats` and `class_distribution` rows, one per intersection. inD
    has no lost flag, so no track is lost anywhere."""
    rng = random.Random(seed)
    root.mkdir(parents=True)
    per_group: dict[str, dict[str, int]] = {}
    for recording, (location, mix) in IND_RECORDINGS.items():
        group = next(f"{lo}-{hi}" for lo, hi in IND_INTERSECTIONS if lo <= recording <= hi)
        counts = per_group.setdefault(group, dict.fromkeys(IND_CLASSES, 0))
        rows, meta = [], []
        for track_id, label in enumerate(_classes(rng, mix)):
            length = rng.randint(10, 40)
            first_frame = rng.randint(0, 50)
            x, y = rng.uniform(0.0, 80.0), rng.uniform(-60.0, 0.0)
            for step in range(length):
                x, y = x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5)
                rows.append(f"{recording},{track_id},{first_frame + step},{step},{x:.4f},{y:.4f},0.0")
            meta.append(
                f"{recording},{track_id},{first_frame},{first_frame + length - 1},{length},{IND_RAW_CLASS[label]}"
            )
            counts[label] += 1
        rng.shuffle(rows)
        stem = f"{recording:02d}"
        (root / f"{stem}_tracks.csv").write_text(
            "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,heading\n" + "\n".join(rows) + "\n"
        )
        (root / f"{stem}_tracksMeta.csv").write_text(
            "recordingId,trackId,initialFrame,finalFrame,numFrames,class\n" + "\n".join(meta) + "\n"
        )
        (root / f"{stem}_recordingMeta.csv").write_text(
            f"recordingId,locationId,frameRate,orthoPxToMeter\n{recording},{location},25.0,0.0127\n"
        )
    lost_stats = [["scene", "n_trajectories", "pct_lost_start", "pct_lost_middle", "pct_lost_end"]]
    classes = [["scene", "n_tracks", *IND_CLASSES]]
    for group, counts in sorted(per_group.items()):
        n = sum(counts.values())
        lost_stats.append([group, str(n), "0.00", "0.00", "0.00"])
        classes.append([group, str(n), *(_percent(count, n) for count in counts.values())])
    return {"lost_stats": lost_stats, "class_distribution": classes}
