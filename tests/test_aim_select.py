"""`aim.select` against a brute-force oracle that measures every pair."""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import make_traj
from trajscope import aim
from trajscope.cli import RunConfig
from trajscope.preprocess import PreprocessConfig
from trajscope.types import ConfigError, InsufficientDataError, RhoConfig, SourceRef, ToolError, scene_diagonal

N_WINDOW = 5


def walkers(seed: int, n_tracks: int, video: str) -> list:
    """Random walkers with integer steps, overlapping in time, in one video."""
    rng = np.random.default_rng(seed)
    trajs = []
    for track in range(n_tracks):
        start, length = int(rng.integers(0, 12)), int(rng.integers(10, 40))
        steps = rng.integers(-3, 4, (length, 2)).astype(float)
        steps[0] = rng.integers(0, 300, 2)
        coords = [tuple(xy) for xy in np.cumsum(steps, axis=0)]
        trajs.append(make_traj(coords, start_frame=start, track_id=track, source=SourceRef("sdd", "walk", video)))
    return trajs


def store(kind: str) -> list:
    """(video key, trajectories) in key order. "copies" holds the same walkers
    in two videos, so every final value is tied across them; "parked" holds
    four tracks that never move, so with alpha 0 every final and bound is 0."""
    if kind == "parked":
        source = SourceRef("sdd", "lot", "video0")
        return [(source.key(), [make_traj([(50.0 + 3 * t, 80.0)] * 20, track_id=t, source=source) for t in range(4)])]
    if kind == "copies":
        walk = walkers(3, 6, "video0")
        return [
            (("sdd", "walk", video), [dataclasses.replace(t, source=SourceRef("sdd", "walk", video)) for t in walk])
            for video in ("video0", "video1")
        ]
    return [(("sdd", "walk", f"video{v}"), walkers(10 + v, n, f"video{v}")) for v, n in enumerate((7, 5, 2))]


def run_config(fitted: bool, alpha: float = 0.3) -> RunConfig:
    rho = RhoConfig(alpha=alpha) if fitted else RhoConfig(alpha=alpha, v0=1.0, sigma_d=125.0, a0=0.25)
    return RunConfig(
        dataset="sdd", inputs=[], out=Path("out"), registry_path=None, preprocess=PreprocessConfig(), rho=rho,
        fit_v0=fitted, fit_sigma_d=fitted, fit_a0=fitted, export_format="both", n_window=N_WINDOW, n_min=6,
    )


class Once:
    """The videos, which may be iterated once, each video's trajectories once too."""

    def __init__(self, videos: list) -> None:
        self.videos = videos
        self.read = False

    def __iter__(self):
        assert not self.read, "the videos were read twice"
        self.read = True
        for key, trajs in self.videos:
            yield key, iter(trajs)


def oracle(videos: list, cfg: RunConfig, top_k: int, named, deltas, n_values) -> tuple[list, int, int]:
    """Every pair measured in both directions: the selection, considered and measurable."""
    pairs = {key: aim.extract_interactions(trajs, N_WINDOW)[::2] for key, trajs in videos}
    rho = cfg.rho
    if cfg.fit_v0:
        fitted = aim.fit_normalizers([p for ps in pairs.values() for p in ps], base=rho)
        rho = dataclasses.replace(rho, v0=fitted.v0, a0=fitted.a0)
    measured = []
    for key, trajs in videos:
        video_rho = rho
        if cfg.fit_sigma_d and scene_diagonal(trajs) > 0:
            video_rho = dataclasses.replace(rho, sigma_d=scene_diagonal(trajs) / 8.0)
        for pair in pairs[key]:
            for direction in (pair, pair.reversed()):
                if named is None or direction.key == named:
                    at = (deltas, n_values) if named else ([cfg.delta], [N_WINDOW])
                    measured += [(key, s) for s in aim.sweep(direction, *at, rho_config=video_rho, n_min=cfg.n_min)]
    if named is None:
        measured = sorted(measured, key=lambda c: (-c[1].final, c[0], c[1].pair.key))[:top_k]
        measured = [
            (key, s)
            for key, best in measured
            for s in aim.sweep(best.pair, deltas, n_values, rho_config=best.rho_config, n_min=cfg.n_min)
        ]
    considered = sum(len(trajs) * (len(trajs) - 1) // 2 for _, trajs in videos)
    return measured, considered, sum(len(ps) for ps in pairs.values())


def summary(chosen: list) -> list:
    return [
        (key, s.pair.key, s.delta, s.n_window, s.rho_config, s.frames.tolist(), s.mi.tolist(),
         s.rho.tolist(), s.aim.tolist())
        for key, s in chosen
    ]


@pytest.mark.parametrize("fitted", [False, True], ids=["fixed", "fitted"])
@pytest.mark.parametrize(
    "kind, top_k, named, deltas, n_values",
    [
        ("walkers", 3, None, [0.98], [N_WINDOW]),
        ("walkers", 1000, None, [0.98], [N_WINDOW]),  # more than the directed pairs
        ("walkers", 4, None, [1.0, 0.9], [N_WINDOW, 8]),  # the winners measured again
        ("copies", 3, None, [0.98], [N_WINDOW]),
        ("copies", 5, None, [0.98], [N_WINDOW]),
        ("copies", 5, ("0", "1"), [0.98], [N_WINDOW]),
        ("copies", 5, ("1", "0"), [0.98, 0.5], [N_WINDOW, 7]),
        ("walkers", 5, ("2", "4"), [0.98], [N_WINDOW]),
        ("parked", 2, None, [0.98], [N_WINDOW]),  # a bound equal to the k-th final does not stop the search
        ("parked", 3, None, [0.98], [N_WINDOW]),
    ],
)
def test_select_equals_measuring_every_pair(fitted, kind, top_k, named, deltas, n_values) -> None:
    videos = store(kind)
    cfg = run_config(fitted, alpha=0.0 if kind == "parked" else 0.3)
    expected, considered, measurable = oracle(videos, cfg, top_k, named, deltas, n_values)
    assert expected, "the case must select something"
    selection = aim.select(Once(videos), cfg, top_k=top_k, named=named, deltas=deltas, n_values=n_values)
    assert summary(selection.series) == summary(expected)
    assert (selection.considered, selection.measurable) == (considered, measurable)
    if named is None:
        assert 0 < selection.measured <= measurable
    else:
        assert selection.measured == len({(key, s.pair.key) for key, s in expected})


@pytest.mark.parametrize("fitted", [False, True], ids=["fixed", "fitted"])
def test_select_measures_at_the_runs_own_delta_and_window_by_default(fitted) -> None:
    videos = store("walkers")
    cfg = run_config(fitted)
    expected, considered, measurable = oracle(videos, cfg, 3, None, [cfg.delta], [N_WINDOW])
    selection = aim.select(Once(videos), cfg, top_k=3, deltas=None, n_values=None)
    assert summary(selection.series) == summary(expected)
    assert (selection.considered, selection.measurable) == (considered, measurable)
    assert selection.skipped == measurable - selection.measured
    assert aim.select(Once(videos), cfg, named=("2", "4")).skipped == 0



def test_select_takes_a_named_pair_as_any_sequence() -> None:
    cfg = run_config(False)
    as_tuple = aim.select(Once(store("walkers")), cfg, named=("2", "4"))
    as_list = aim.select(Once(store("walkers")), cfg, named=["2", "4"])
    assert as_tuple.series
    assert summary(as_list.series) == summary(as_tuple.series)
    assert as_list.measured == as_tuple.measured


@pytest.mark.parametrize(
    "arguments, message",
    [
        ({"top_k": 0}, "--top-k must be >= 1, got 0"),
        ({"top_k": -1}, "--top-k must be >= 1, got -1"),
        ({"top_k": True}, "--top-k must be an integer, got True"),
        ({"deltas": []}, "--sweep-delta is empty"),
        ({"n_values": []}, "--sweep-n is empty"),
        ({"deltas": [1.5]}, "delta must be in (0, 1], got 1.5"),
        ({"n_values": [0]}, "n_window must be >= 1, got 0"),
        ({"named": ("0", "0")}, "--pair names track '0' twice; a pair needs two tracks"),
        ({"n_values": [3]}, "first eval point 4 is below the 6-sample minimum"),  # n_min 6
    ],
    ids=["top-k-0", "top-k-negative", "top-k-bool", "no-deltas", "no-n-values", "delta", "n-value", "pair", "n-min"],
)
def test_select_checks_its_arguments_before_reading_a_video(arguments, message) -> None:
    videos = Once(store("walkers"))
    with pytest.raises(ToolError) as err:
        aim.select(videos, run_config(False), **{"deltas": [0.98], "n_values": [N_WINDOW], **arguments})
    assert str(err.value) == message
    assert not videos.read


def test_select_with_nothing_measurable_is_an_error() -> None:
    far = [(("sdd", "walk", "video0"), [make_traj([(0.0, 0.0)] * 3, track_id=t) for t in range(3)])]
    with pytest.raises(InsufficientDataError, match="no measurable pairs"):
        aim.select(Once(far), run_config(False), deltas=[0.98], n_values=[N_WINDOW])
    with pytest.raises(InsufficientDataError, match="tracks 0 and 1 share too few co-present frames"):
        aim.select(Once(far), run_config(False), named=("0", "1"), deltas=[0.98], n_values=[N_WINDOW])


@pytest.mark.parametrize("named, unknown", [(("77", "1"), "77"), (("1", "77"), "77"), (("78", "77"), "78")])
@pytest.mark.parametrize("kind", ["walkers", "far"])
def test_select_reports_the_first_unknown_named_track(kind, named, unknown) -> None:
    # on "far" nothing is measurable, so the unknown track is reported before co-presence
    far = [(("sdd", "walk", "video0"), [make_traj([(0.0, 0.0)] * 3, track_id=t) for t in range(3)])]
    videos = far if kind == "far" else store(kind)
    with pytest.raises(ConfigError) as err:
        aim.select(Once(videos), run_config(False), named=named, deltas=[0.98], n_values=[N_WINDOW])
    assert str(err.value) == f"unknown track id {unknown!r} (not in the ingested store)"
