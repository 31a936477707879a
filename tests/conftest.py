from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import pytest

from trajscope.types import POINT_DTYPE, SourceRef, Trajectory

DEFAULT_SRC = SourceRef("sdd", "testscene", "video0")


def make_traj(
    coords: Sequence[tuple[float, float]],
    lost: Sequence[bool] | None = None,
    start_frame: int = 0,
    track_id: int = 1,
    class_label: str = "Pedestrian",
    source: SourceRef = DEFAULT_SRC,
    frame_step: int = 1,
) -> Trajectory:
    lost = list(lost) if lost is not None else [False] * len(coords)
    assert len(lost) == len(coords)
    points = np.zeros(len(coords), POINT_DTYPE)
    points["frame"] = start_frame + frame_step * np.arange(len(coords))
    if len(coords):
        points["x"], points["y"] = np.asarray(coords, dtype=np.float64).T
    points["lost"] = lost
    return Trajectory(track_id=track_id, class_label=class_label, points=points, source=source)


def by_video(trajectories: Iterable[Trajectory]) -> Iterator[tuple[list[Trajectory], dict]]:
    """The trajectories as `write_store` takes them: one (trajectories, diagnostics)
    pair per video, in order of first appearance, with no diagnostics."""
    videos: dict[tuple[str, str, str], list[Trajectory]] = {}
    for traj in trajectories:
        videos.setdefault(traj.source.key(), []).append(traj)
    return ((video, {}) for video in videos.values())


def straight_line(
    n: int,
    step: tuple[float, float] = (1.0, 0.0),
    origin: tuple[float, float] = (0.0, 0.0),
    **kwargs,
) -> Trajectory:
    coords = [(origin[0] + i * step[0], origin[1] + i * step[1]) for i in range(n)]
    return make_traj(coords, **kwargs)


@pytest.fixture
def parked_then_moving() -> Trajectory:
    """60 raw points: frames 0-39 lost and parked at (5,5); frames 40-47
    heading +x at 2 px/frame from (0,0); frames 48-59 turning +y at 2 px/frame.

    Kept in one place because the preprocessing bias property and the paired
    evaluation ordering both run on exactly this geometry.
    """
    coords = [(5.0, 5.0)] * 40
    coords += [(2.0 * i, 0.0) for i in range(8)]  # (0,0) .. (14,0)
    coords += [(14.0, 2.0 * i) for i in range(1, 13)]  # (14,2) .. (14,24)
    lost = [True] * 40 + [False] * 20
    return make_traj(coords, lost=lost, track_id=9)
