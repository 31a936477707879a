"""Displacement-error scoring for prediction windows, plus an analytic
constant-velocity baseline and a reader for externally produced predictions.

Errors are pixel-space Euclidean displacements: ade averages over every
predicted point, fde looks at the final point only. The harness scores any
callable that maps a window to a Prediction, so learned models can be
evaluated by exporting their outputs to the documented JSONL record format
(one object per line: {"window_id": ..., "points": [[x, y], ...]}).
`scores` is the whole of `trajscope eval` but the file writing.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .preprocess import LostPolicy, PreprocessConfig, TrajectoryWindow, preprocess_trajectory
from .types import InsufficientDataError, StructuralError, Trajectory, not_utf8


@dataclass(frozen=True, eq=False)
class Prediction:
    """Predicted future points for one window, aligned by window id."""

    window_id: str
    points: np.ndarray  # (predict_len, 2)


@dataclass(frozen=True)
class EvalReport:
    """Mean errors for one (dataset, group, preprocessing-config) cell."""

    dataset: str
    group: str  # "all" or a class label
    config: str
    ade: float
    fde: float
    n_windows: int


Predictor = Callable[[TrajectoryWindow], Prediction]


def _displacements(prediction, truth) -> np.ndarray:
    """Euclidean displacement at each predicted point."""
    pred = np.asarray(prediction, dtype=np.float64)
    true = np.asarray(truth, dtype=np.float64)
    if pred.shape != true.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise StructuralError(
            f"prediction and truth must both be (n, 2) points, got "
            f"{pred.shape} vs {true.shape}"
        )
    if len(pred) == 0:
        raise StructuralError("cannot score an empty prediction")
    gaps = pred - true
    return np.hypot(gaps[:, 0], gaps[:, 1])


def ade(prediction, truth) -> float:
    """Mean Euclidean displacement over all predicted points."""
    return float(_displacements(prediction, truth).mean())


def fde(prediction, truth) -> float:
    """Euclidean displacement at the final predicted point."""
    return float(_displacements(prediction, truth)[-1])


def constant_velocity_predict(window: TrajectoryWindow) -> Prediction:
    """Extrapolate the mean observed step linearly over the future points."""
    observed = np.asarray(window.observed, dtype=np.float64)
    if len(observed) < 2:
        raise StructuralError(
            f"window {window.window_id}: constant-velocity needs >= 2 observed points"
        )
    step = (observed[-1] - observed[0]) / (len(observed) - 1)
    horizon = len(window.future)
    points = observed[-1] + np.outer(np.arange(1, horizon + 1), step)
    return Prediction(window.window_id, points)


def predictor_from_mapping(mapping: Mapping[str, Sequence]) -> Predictor:
    """Serve pre-computed predictions by window id; unknown ids are rejected."""

    def predict(window: TrajectoryWindow) -> Prediction:
        try:
            points = mapping[window.window_id]
        except KeyError:
            raise StructuralError(
                f"no prediction supplied for window {window.window_id}"
            ) from None
        points = np.asarray(points, dtype=np.float64)
        if points.shape != (len(window.future), 2):
            raise StructuralError(
                f"prediction for window {window.window_id} has shape "
                f"{points.shape}, expected ({len(window.future)}, 2)"
            )
        if not np.isfinite(points).all():
            raise StructuralError(f"prediction for window {window.window_id} has non-finite points")
        return Prediction(window.window_id, points)

    return predict


def load_predictions(path) -> dict[str, np.ndarray]:
    """Read a JSONL predictions file into {window_id: (n, 2) points}."""
    out: dict[str, np.ndarray] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            window_id = record["window_id"]
            points = np.asarray(record["points"], dtype=np.float64)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"{path}:{line_no}: bad prediction record: {exc}")
        if not isinstance(window_id, str):
            raise StructuralError(f"{path}:{line_no}: window_id must be a string, got {json.dumps(window_id)}")
        if points.ndim != 2 or points.shape[1] != 2:
            raise StructuralError(
                f"{path}:{line_no}: points must be a list of [x, y] pairs"
            )
        if not np.isfinite(points).all():
            raise StructuralError(f"{path}:{line_no}: points must be finite numbers")
        if window_id in out:
            raise StructuralError(f"{path}:{line_no}: duplicate window id {window_id}")
        out[window_id] = points
    return out


def evaluate(
    windows: Sequence[TrajectoryWindow],
    predictor: Predictor,
    *,
    config_label: str = "default",
) -> list[EvalReport]:
    """Score every window once, grouping as it scores, then average per group.

    Groups are "all" plus one row per class present; classes with no
    windows are omitted, so no windows give no rows. Rows come back
    sorted by dataset, with "all" ahead of the class rows.
    """
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for window in windows:
        displacements = _displacements(predictor(window).points, window.future)
        ade_fde = (displacements.mean(), displacements[-1])
        for group in ("all", window.class_label):
            groups.setdefault((window.track.source.dataset, group), []).append(ade_fde)

    def order(key: tuple[str, str]):
        dataset, group = key
        return (dataset, group != "all", group)

    reports = []
    for dataset, group in sorted(groups, key=order):
        errors = groups[(dataset, group)]
        # fsum gives the correctly rounded sum in any order, so a permuted
        # window list cannot change the reported means
        reports.append(
            EvalReport(
                dataset=dataset,
                group=group,
                config=config_label,
                ade=math.fsum(a for a, _ in errors) / len(errors),
                fde=math.fsum(f for _, f in errors) / len(errors),
                n_windows=len(errors),
            )
        )
    return reports


def scores(
    videos: Iterable[tuple[tuple[str, str, str], Iterable[Trajectory]]], predictor: Predictor,
    preprocess: PreprocessConfig, policies: Sequence[LostPolicy], native_rate: float,
) -> list[EvalReport]:
    """The rows `trajscope eval` writes: for each lost policy in order, the
    `evaluate` rows of every window that `preprocess` with that policy cuts
    from the trajectories, at `native_rate` frames per second. `videos`
    yields each video's key and trajectories and is read once; a policy that
    leaves no windows is an InsufficientDataError."""
    trajectories = [t for _, video in videos for t in video]
    rows = []
    for policy in policies:
        config = dataclasses.replace(preprocess, lost_policy=policy)
        windows = [window for traj in trajectories for window in preprocess_trajectory(traj, config, native_rate)]
        if not windows:
            raise InsufficientDataError(f"preprocessing with lost policy {policy.value!r} produced no windows")
        rows += evaluate(windows, predictor, config_label=policy.value)
    return rows
