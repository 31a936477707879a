"""Seeded input trees with planted answers.

Each writer puts raw annotation files of a known make-up under a directory
and returns the tables `trajscope stats` must write for them, as their CSV
files read: a header row, then one row per scene (SDD) or per intersection
(inD), in the order the CSV holds them. The answers come from what was
planted, not from the code under test: which tracks have lost points at
their start, strictly inside, or at their end, and how many tracks of each
class each video holds, which two tracks come close, which two track
ids are one walk cut in two, and which lost boxes walk on or freeze. The
seed picks the rest (track lengths, first frames, positions, where each
lost run falls, the row order in a file), and one seed always writes the
same bytes.
"""
from __future__ import annotations

import math
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


# The crossing video: eight walkers and the crossing pair on a 3 x 3 grid of
# cells CELL px apart, the pair in the middle cell. Every track stays within
# REACH px of its cell's centre, so a walker never comes within
# CELL - 2 * REACH px of another track, while the pair's paths cross at a
# shallow angle and stay within CLOSE px of each other for a span of frames.
CROSSING_VIDEO = ("hyang", "video0")
CELL, REACH, CLOSE = 600, 100, 3
WALKER_GAP = CELL - 2 * REACH


def _sdd_rows(rng: random.Random, track_id: int, first_frame: int, centres: list[tuple[int, int]]) -> list[str]:
    """A track's rows: a box around each centre, one frame apart, nothing lost."""
    rows = []
    for step, (x, y) in enumerate(centres):
        half = rng.randint(2, 20)
        rows.append(f'{track_id} {x - half} {y - half} {x + half} {y + half} {first_frame + step} 0 0 0 "Pedestrian"')
    return rows


def crossing_tree(root: Path, seed: int) -> dict:
    """Write <root>/<scene>/<video>/annotations.txt for CROSSING_VIDEO and
    return the crossing pair's track ids (`pair`, as uids) and the first and
    last frame at which the two are at most CLOSE px apart (`span`).

    The pair walks +x side by side for 120 frames; one drifts across the
    other's line by 1 px every 10 frames, 6 px below it at the start and 6 px
    above at the end. Each walker goes straight through its cell's centre at
    1 to 1.5 px per frame for 80 to 120 frames, in a direction of its own."""
    rng = random.Random(seed)
    ids = list(range(10))
    rng.shuffle(ids)
    rows = []
    cells = [(col, row) for row in range(3) for col in range(3) if (col, row) != (1, 1)]
    for track_id, (col, row) in zip(ids, cells):
        cx, cy = 200 + CELL * col, 200 + CELL * row
        length, speed, angle = rng.randint(80, 120), rng.uniform(1.0, 1.5), rng.uniform(0.0, 2 * math.pi)
        dx, dy = speed * math.cos(angle), speed * math.sin(angle)
        steps = [k - length // 2 for k in range(length)]  # the centre is passed halfway
        rows += _sdd_rows(rng, track_id, rng.randint(0, 20), [(round(cx + k * dx), round(cy + k * dy)) for k in steps])
    first_frame, x0, y0 = rng.randint(0, 20), 200 + CELL - 90, 200 + CELL
    xs = [x0 + (3 * k) // 2 for k in range(120)]
    offsets = [round((k - 60) / 10) for k in range(120)]
    rows += _sdd_rows(rng, ids[8], first_frame, [(x, y0) for x in xs])
    rows += _sdd_rows(rng, ids[9], first_frame, [(x, y0 + d) for x, d in zip(xs, offsets)])
    close = [first_frame + k for k, d in enumerate(offsets) if abs(d) <= CLOSE]
    rng.shuffle(rows)
    path = root.joinpath(*CROSSING_VIDEO, "annotations.txt")
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(rows) + "\n")
    return {"pair": (str(ids[8]), str(ids[9])), "span": (close[0], close[-1])}


# The fragment video: one walk per cell of the 3 x 3 grid, each cut into two
# track ids at a (gap g frames, jump j px) of FRAGMENT_CUTS, and two walks left
# whole. A cut's second id starts g frames after the first id's last frame, j px
# away along an axis. The first four cuts are inside `detect_split_candidates`'
# default gates, FRAGMENT_GATES (g <= 60 frames, j <= 50 px), two of them on the
# limits; the last three are outside. Every walk stays within FRAGMENT_REACH px
# of its cell's centre, so no other end and start come within CELL - 2 * FRAGMENT_REACH px.
FRAGMENT_VIDEO = ("bookstore", "video0")
FRAGMENT_CUTS = ((1, 0), (15, 8), (40, 35), (60, 50), (61, 10), (20, 51), (100, 90))
FRAGMENT_GATES = (60, 50)
FRAGMENT_REACH = 200


def fragment_tree(root: Path, seed: int) -> dict:
    """Write <root>/<scene>/<video>/annotations.txt for FRAGMENT_VIDEO and
    return each cut as (first uid, second uid, g, j) under `cuts`, and those
    inside FRAGMENT_GATES under `joins`, both sorted.

    A walk goes straight at 1 to 1.5 px per frame in a direction of its own
    for 30 to 60 frames per id; a cut walk goes on in the same direction
    after its jump."""
    rng = random.Random(seed)
    ids = list(range(2 * len(FRAGMENT_CUTS) + 2))
    rng.shuffle(ids)
    fresh = iter(ids)
    rows, cuts = [], []
    for cell, cut in enumerate([*FRAGMENT_CUTS, None, None]):
        cx, cy = 200 + CELL * (cell % 3), 200 + CELL * (cell // 3)
        speed, angle = rng.uniform(1.0, 1.5), rng.uniform(0.0, 2 * math.pi)
        dx, dy = speed * math.cos(angle), speed * math.sin(angle)
        lengths = [rng.randint(30, 60) for _ in range(1 if cut is None else 2)]
        # start half the walk back from the centre, so the walk passes it
        x0, y0 = cx - dx * sum(lengths) / 2, cy - dy * sum(lengths) / 2
        walk = [(round(x0 + k * dx), round(y0 + k * dy)) for k in range(lengths[0])]
        first_frame, first_id = rng.randint(0, 20), next(fresh)
        rows += _sdd_rows(rng, first_id, first_frame, walk)
        if cut is None:
            continue
        gap, jump = cut
        jx, jy = rng.choice([(jump, 0), (-jump, 0), (0, jump), (0, -jump)])
        (ex, ey), second_id = walk[-1], next(fresh)
        walk = [(ex + jx + round(k * dx), ey + jy + round(k * dy)) for k in range(lengths[1])]
        rows += _sdd_rows(rng, second_id, first_frame + lengths[0] - 1 + gap, walk)
        cuts.append((str(first_id), str(second_id), gap, jump))
    rng.shuffle(rows)
    path = root.joinpath(*FRAGMENT_VIDEO, "annotations.txt")
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(rows) + "\n")
    max_gap, max_jump = FRAGMENT_GATES
    return {"cuts": sorted(cuts), "joins": sorted(c for c in cuts if c[2] <= max_gap and c[3] <= max_jump)}


# The lost-walk video: walkers going straight at a constant integer velocity in
# px per frame, in boxes of even width, so every centre, and every sample the
# 30 fps annotations leave at 2.5 fps (one in twelve), is an integer. Each
# walker is lost for one run of LOST_RUN frames strictly inside its track. A
# Pedestrian's lost box keeps walking; a Biker's freezes at its last seen centre.
# The run starts in the prediction half of the second 20-sample window (frame
# 325 to 468 of the track), after more than one window's worth of frames, so
# the constant-velocity predictor is exact on every window of straight walking,
# and errs on that window of a frozen run.
LOST_WALK_VIDEO = ("little", "video0")
LOST_WALK_CLASSES = {"Pedestrian": 4, "Biker": 4}
LOST_RUN = (60, 120)
# the (lost policy, class) of the one `eval` row whose ADE is above 0; every
# other row's ADE and FDE is exactly 0
LOST_WALK_DRIFT = ("keep_lost", "Biker")


def lost_walk_tree(root: Path, seed: int) -> dict:
    """Write <root>/<scene>/<video>/annotations.txt for LOST_WALK_VIDEO and
    return the `lost_stats` rows: every track lost strictly inside, and
    nowhere else. The seed picks each walker's class, velocity, start, track
    length, where its run starts and how long it is."""
    rng = random.Random(seed)
    velocities = [(vx, vy) for vx in range(-2, 3) for vy in range(-2, 3) if (vx, vy) != (0, 0)]
    rows = []
    labels = _classes(rng, LOST_WALK_CLASSES)
    for track_id, label in enumerate(labels):
        (vx, vy), x0, y0 = rng.choice(velocities), rng.randint(1500, 2500), rng.randint(1500, 2500)
        first_frame, lost_from, run = rng.randint(0, 100), 240 + rng.randint(85, 228), rng.randint(*LOST_RUN)
        for k in range(lost_from + run + rng.randint(120, 240)):
            lost = lost_from <= k < lost_from + run
            at = lost_from - 1 if lost and label == "Biker" else k
            x, y, half = x0 + vx * at, y0 + vy * at, rng.randint(2, 20)
            box = f"{x - half} {y - half} {x + half} {y + half}"
            rows.append(f'{track_id} {box} {first_frame + k} {int(lost)} 0 0 "{label}"')
    rng.shuffle(rows)
    path = root.joinpath(*LOST_WALK_VIDEO, "annotations.txt")
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(rows) + "\n")
    header = ["scene", "n_trajectories", "pct_lost_start", "pct_lost_middle", "pct_lost_end"]
    return {"lost_stats": [header, [LOST_WALK_VIDEO[0], str(len(labels)), "0.00", "100.00", "0.00"]]}
