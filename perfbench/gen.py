"""Seeded synthetic SDD and inD trees for the benchmark.

The program under test only ever sees the files written here. Sizes are
fixed by the workload spec; the seed moves positions, speeds, start frames,
class labels and lost runs, while track lengths are evenly spaced (in a
seeded order) so that row and pair counts barely change from seed to seed.
That keeps run cost steady across seeds without making the inputs equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SDD_IMAGE = (1400.0, 1900.0)  # width, height in pixels
SDD_CLASSES = ("Pedestrian", "Biker", "Skater", "Car")
SDD_CLASS_P = (0.6, 0.3, 0.05, 0.05)
SDD_SPEED = {"Pedestrian": 1.2, "Biker": 3.5, "Skater": 2.5, "Car": 5.0}  # px/frame
SDD_BOX = {"Pedestrian": 30, "Biker": 44, "Skater": 34, "Car": 90}

IND_CLASSES = ("pedestrian", "bicycle", "car", "truck_bus")
IND_CLASS_P = (0.35, 0.15, 0.42, 0.08)
IND_SPEED = {"pedestrian": 1.4, "bicycle": 4.5, "car": 8.0, "truck_bus": 7.0}  # m/s
IND_SIZE = {"pedestrian": (0.6, 0.6), "bicycle": (0.7, 1.8), "car": (1.9, 4.6), "truck_bus": (2.6, 10.0)}
IND_RATE = 25.0
IND_FACTOR = 0.0126999352  # orthoPxToMeter
IND_LOCATION = {7: 2, 18: 3}  # recording id -> location id (recordings 7-17 / 18-29)
IND_TRACK_COLUMNS = (
    "recordingId", "trackId", "frame", "trackLifetime", "xCenter", "yCenter",
    "heading", "width", "length", "xVelocity", "yVelocity", "xAcceleration",
    "yAcceleration", "lonVelocity", "latVelocity", "lonAcceleration", "latAcceleration",
)


@dataclass(frozen=True)
class TrackSpan:
    """One generated track's identity and frame interval (both ends included)."""

    video: str
    track_id: int
    first: int
    last: int


def _lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """n lengths evenly spaced over [lo, hi], jittered and shuffled."""
    base = np.linspace(lo, hi, n)
    jitter = rng.uniform(-0.5, 0.5, n) * (hi - lo) / max(n, 1)
    return rng.permutation(np.clip(np.rint(base + jitter), lo, hi).astype(np.int64))


def _walk(rng, n: int, speed: float, start: np.ndarray, turn: float) -> np.ndarray:
    """(n, 2) smooth random walk: slowly turning heading, mean step `speed`."""
    heading = rng.uniform(0.0, 2 * np.pi) + np.cumsum(rng.normal(0.0, turn, n))
    step = speed * (1.0 + 0.1 * rng.standard_normal(n))
    steps = np.stack([np.cos(heading), np.sin(heading)], axis=1) * step[:, None]
    return start + np.cumsum(steps, axis=0) - steps[0]


def _runs(rng, n: int, share: float, lo: int, hi: int) -> np.ndarray:
    """Boolean mask with a few runs of lengths in [lo, hi] covering about `share`."""
    mask = np.zeros(n, dtype=bool)
    for _ in range(int(rng.poisson(share * n / ((lo + hi) / 2)))):
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, max(1, n - length)))
        mask[start : start + length] = True
    return mask


def _lost_mask(rng, n: int) -> np.ndarray:
    """~40% of tracks get a lost run at the start, in the middle or at the end."""
    mask = np.zeros(n, dtype=bool)
    if rng.random() >= 0.4:
        return mask
    length = int(min(n // 4, rng.integers(10, 61)))
    where = rng.integers(0, 3)
    if where == 0:
        mask[:length] = True
    elif where == 1:
        start = int(rng.integers(length, n - 2 * length))
        mask[start : start + length] = True
    else:
        mask[n - length :] = True
    return mask


def write_sdd_video(
    path: Path,
    rng: np.random.Generator,
    video: str,
    n_tracks: int,
    n_frames: int,
    length_range: tuple[int, int],
    group: float | None = None,
) -> list[TrackSpan]:
    """Write one SDD annotations.txt; returns each track's frame span.

    Rows are track-major, frame-minor, every frame present (lost rows
    included), integer box coordinates, as in the released files. With
    `group` set, the tracks form one staggered crowd: lengths rise with the
    track id, starts are evenly spaced over the video (a few frames of
    jitter), classes alternate Pedestrian/Biker at their nominal speeds, and
    every track starts within `group` pixels of the image centre. The
    co-present pairs, their lengths and the ground they cover (which sets
    the MI estimator's cell count) then hardly depend on the seed, and the
    interaction is nonzero.
    """
    width, height = SDD_IMAGE
    lengths = _lengths(rng, n_tracks, *length_range)
    if group is not None:
        lengths = np.sort(lengths)
        step = (n_frames - length_range[1]) / max(n_tracks - 1, 1)
    spans: list[TrackSpan] = []
    chunks: list[str] = []
    for track_id, length in enumerate(lengths.tolist()):
        if group is None:
            first = int(rng.integers(0, n_frames - length + 1))
            label = SDD_CLASSES[int(rng.choice(len(SDD_CLASSES), p=SDD_CLASS_P))]
            start = rng.uniform((100.0, 100.0), (width - 100.0, height - 100.0))
            speed = SDD_SPEED[label] * rng.uniform(0.8, 1.2)
        else:
            first = int(np.clip(round(track_id * step) + rng.integers(-3, 4), 0, n_frames - length))
            label = ("Pedestrian", "Biker")[track_id % 2]
            start = np.array((width / 2, height / 2)) + rng.uniform(-group, group, 2)
            speed = SDD_SPEED[label]
        centre = _walk(rng, length, speed, start, 0.05)
        centre = np.clip(centre, (0.0, 0.0), (width, height))
        half = SDD_BOX[label] / 2 * rng.uniform(0.8, 1.2)
        box = np.rint(np.concatenate([centre - half, centre + half], axis=1)).astype(np.int64)
        lost = _lost_mask(rng, length).astype(np.int64)
        occluded = _runs(rng, length, 0.1, 5, 40).astype(np.int64)
        generated = _runs(rng, length, 0.3, 10, 80).astype(np.int64)
        labels = [label] * length
        if rng.random() < 0.02:  # a few tracks change label mid-way
            switch = int(rng.integers(1, length))
            other = "Biker" if label != "Biker" else "Pedestrian"
            labels[switch:] = [other] * (length - switch)
        frames = range(first, first + length)
        chunks.extend(
            f'{track_id} {b[0]} {b[1]} {b[2]} {b[3]} {f} {lo} {oc} {ge} "{lab}"\n'
            for b, f, lo, oc, ge, lab in zip(
                box.tolist(), frames, lost.tolist(), occluded.tolist(), generated.tolist(), labels
            )
        )
        spans.append(TrackSpan(video, track_id, first, first + length - 1))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(chunks))
    return spans


def write_ind_recording(
    directory: Path,
    rng: np.random.Generator,
    recording: int,
    n_tracks: int,
    n_frames: int,
    length_range: tuple[int, int],
    planted_len: int,
) -> list[TrackSpan]:
    """Write one inD triple; tracks 0 and 1 are a planted pair walking together.

    Tracks are gapless, in meters, y negative (the dataset's convention).
    """
    lengths = _lengths(rng, n_tracks, *length_range)
    lengths[0] = lengths[1] = planted_len
    planted_first = int(rng.integers(0, n_frames - planted_len + 1))
    planted_start = rng.uniform((30.0, -60.0), (60.0, -30.0))
    planted_track = _walk(rng, planted_len, 1.4 / IND_RATE, planted_start, 0.02)
    track_rows: list[str] = []
    meta_rows: list[str] = []
    spans: list[TrackSpan] = []
    for track_id, length in enumerate(lengths.tolist()):
        if track_id < 2:
            cls = "pedestrian"
            first = planted_first
            offset = np.array((0.0, 0.8 * track_id)) + rng.normal(0.0, 0.05, (length, 2))
            xy = planted_track + offset
        else:
            cls = IND_CLASSES[int(rng.choice(len(IND_CLASSES), p=IND_CLASS_P))]
            first = int(rng.integers(0, n_frames - length + 1))
            start = rng.uniform((5.0, -95.0), (95.0, -5.0))
            xy = _walk(rng, length, IND_SPEED[cls] * rng.uniform(0.8, 1.2) / IND_RATE, start, 0.03)
        vel = np.gradient(xy, axis=0) * IND_RATE
        acc = np.gradient(vel, axis=0) * IND_RATE
        heading = np.degrees(np.arctan2(vel[:, 1], vel[:, 0])) % 360.0
        speed = np.hypot(vel[:, 0], vel[:, 1])
        width, length_m = IND_SIZE[cls]
        track_rows.extend(
            f"{recording},{track_id},{first + k},{k},{x:.5f},{y:.5f},{h:.5f},"
            f"{width:.5f},{length_m:.5f},{vx:.5f},{vy:.5f},{ax:.5f},{ay:.5f},"
            f"{s:.5f},0.00000,0.00000,0.00000\n"
            for k, (x, y, h, vx, vy, ax, ay, s) in enumerate(
                zip(xy[:, 0].tolist(), xy[:, 1].tolist(), heading.tolist(),
                    vel[:, 0].tolist(), vel[:, 1].tolist(),
                    acc[:, 0].tolist(), acc[:, 1].tolist(), speed.tolist())
            )
        )
        meta_rows.append(
            f"{recording},{track_id},{first},{first + length - 1},{length},"
            f"{width:.2f},{length_m:.2f},{cls}\n"
        )
        spans.append(TrackSpan(str(recording), track_id, first, first + length - 1))
    prefix = directory / f"{recording:02d}"
    directory.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}_tracks.csv").write_text(",".join(IND_TRACK_COLUMNS) + "\n" + "".join(track_rows))
    Path(f"{prefix}_tracksMeta.csv").write_text(
        "recordingId,trackId,initialFrame,finalFrame,numFrames,width,length,class\n"
        + "".join(meta_rows)
    )
    Path(f"{prefix}_recordingMeta.csv").write_text(
        "recordingId,locationId,frameRate,speedLimit,weekday,startTime,duration,"
        "numTracks,numVehicles,numVRUs,latLocation,lonLocation,xUtmOrigin,yUtmOrigin,"
        "orthoPxToMeter\n"
        f"{recording},{IND_LOCATION[recording]},{IND_RATE},13.88889,Tuesday,13,"
        f"{n_frames / IND_RATE:.2f},{n_tracks},0,0,50.78,6.06,300000.0,5640000.0,"
        f"{IND_FACTOR}\n"
    )
    return spans


def pair_facts(spans: list[TrackSpan], n_window: int) -> dict:
    """Pair counts the program should find, from the generated intervals alone.

    Every track has a row on every frame of its span, so two tracks share
    exactly their interval overlap, and a pair is measurable when that
    overlap holds n_window + 1 frames.
    """
    candidate = measurable = pair_frames = 0
    videos = sorted({s.video for s in spans})
    for video in videos:
        first = np.array([s.first for s in spans if s.video == video])
        last = np.array([s.last for s in spans if s.video == video])
        overlap = np.minimum(last[:, None], last[None, :]) - np.maximum(first[:, None], first[None, :]) + 1
        upper = np.triu(np.ones_like(overlap, dtype=bool), k=1)
        shared = overlap[upper]
        candidate += int(upper.sum())
        ok = shared >= n_window + 1
        measurable += int(ok.sum())
        pair_frames += int(2 * (shared[ok] - n_window).sum())
    return {
        "candidate_pairs": candidate,
        "measurable_pairs": measurable,
        "directed_pair_frames": pair_frames,
    }
