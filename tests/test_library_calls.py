"""`stats` and `eval` are one library call each on `store.videos`:
`analytics.reports` and `evaluation.scores` return what the commands write,
read their videos once and fail as the commands do."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from test_cli import sdd_row, write_config, write_ind_recording, write_sdd_tree
from trajscope import cli
from trajscope.analytics import reports
from trajscope.evaluation import constant_velocity_predict, scores
from trajscope.preprocess import LostPolicy, PreprocessConfig
from trajscope.registry import load_registry
from trajscope.store import videos
from trajscope.types import InsufficientDataError, StructuralError, row_columns

POLICIES = "keep_lost,filter_keep_first"


def ingested(tmp_path: Path, dataset: str) -> Path:
    """A config whose store holds the SDD test tree or an inD recording (7, at an intersection)."""
    out = tmp_path / "out"
    if dataset == "sdd":
        config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), out)
    else:
        write_ind_recording(tmp_path / "data")
        config = tmp_path / "config.yaml"
        config.write_text(  # at the native 25 fps the 30-frame tracks give windows
            f"dataset: ind\ninputs: [{tmp_path / 'data'}]\nout: {out}\npreprocess: {{target_rate: 25.0}}\n"
        )
    assert cli.main(["ingest", "--config", str(config)]) == 0
    return config


def files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class ReadCounter:
    """An iterable of videos that counts how often it is read."""

    def __init__(self, store_dir: Path) -> None:
        self.store_dir = store_dir
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return videos(self.store_dir)


@pytest.mark.parametrize("dataset", ["sdd", "ind"])
def test_reports_are_the_tables_stats_writes(tmp_path, dataset) -> None:
    config = ingested(tmp_path, dataset)
    assert cli.main(["stats", "--config", str(config)]) == 0
    cfg = cli.load_run_config(config)
    store = ReadCounter(cfg.store_dir)
    tables = reports(store, load_registry(), dataset)
    assert store.reads == 1
    for name, (columns, decimals) in tables.items():
        cli._write_table(tmp_path / "library" / name, columns, decimals, cfg.export_format)
    assert files(tmp_path / "library") == files(cfg.reports_dir)
    expected = ["lost_stats", "class_distribution"] + (["overlap_report"] if dataset == "sdd" else [])
    assert list(tables) == expected


@pytest.mark.parametrize("dataset", ["sdd", "ind"])
def test_scores_are_the_rows_eval_writes(tmp_path, dataset) -> None:
    config = ingested(tmp_path, dataset)
    assert cli.main(["eval", "--config", str(config), "--lost-policy", POLICIES]) == 0
    cfg = cli.load_run_config(config)
    store = ReadCounter(cfg.store_dir)
    policies = [LostPolicy.parse(p) for p in POLICIES.split(",")]
    rows = scores(store, constant_velocity_predict, cfg.preprocess, policies, load_registry().frame_rate(dataset))
    assert store.reads == 1
    assert [row.config for row in rows if row.group == "all"] == POLICIES.split(",")
    columns = row_columns(rows, ("dataset", "config", "group", "n_windows", "ade", "fde"))
    cli._write_table(tmp_path / "library" / "eval", columns, {"ade": 6, "fde": 6}, cfg.export_format)
    assert files(tmp_path / "library") == files(cfg.reports_dir)


def test_a_policy_that_leaves_no_windows_is_the_eval_error(tmp_path, capsys) -> None:
    video = tmp_path / "annotations" / "quad" / "video0"
    video.mkdir(parents=True)
    # 40 frames lost in the middle: keep_lost windows them, filter_keep_first keeps 10 points
    rows = [sdd_row(0, 100 + i, 100, i, lost=int(10 <= i < 30)) for i in range(40)]
    (video / "annotations.txt").write_text("\n".join(rows) + "\n")
    config = write_config(tmp_path / "config.yaml", tmp_path / "annotations", tmp_path / "out")
    assert cli.main(["ingest", "--config", str(config)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config), "--lost-policy", POLICIES]) == 1
    error = capsys.readouterr().err.splitlines()[-1]

    cfg = cli.load_run_config(config)
    policies = [LostPolicy.KEEP_LOST, LostPolicy.FILTER_KEEP_FIRST]
    with pytest.raises(InsufficientDataError) as err:
        scores(videos(cfg.store_dir), constant_velocity_predict, cfg.preprocess, policies, 30.0)
    assert error == f"error: {err.value}"
    assert str(err.value) == "preprocessing with lost policy 'filter_keep_first' produced no windows"


def test_a_missing_store_is_reported_when_the_videos_are_first_read(tmp_path) -> None:
    missing = tmp_path / "out" / "store"
    for call in (
        lambda v: reports(v, load_registry(), "sdd"),
        lambda v: scores(v, constant_velocity_predict, PreprocessConfig(), [LostPolicy.KEEP_LOST], 30.0),
    ):
        unread = videos(missing)  # nothing is read until the call reads it
        with pytest.raises(StructuralError, match=f"^no ingested store at {re.escape(str(missing))}: "):
            call(unread)
