from __future__ import annotations

import csv
import dataclasses
import heapq
import json
import shutil
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import yaml

import plant
from trajscope import aim, cli
from trajscope.aim import (
    RhoConfig,
    extract_interactions,
    fit_normalizers,
    measure_interaction,
    sweep,
)
from trajscope.analytics import detect_split_candidates
from trajscope.cli import load_run_config, main
from trajscope.mi import DEFAULT_BANDWIDTHS, DEFAULT_N_MIN
from trajscope.preprocess import LostPolicy, PreprocessConfig, preprocess_trajectory
from trajscope.registry import load_registry
from trajscope.store import load_store, videos, write_store
from trajscope.types import POINT_DTYPE, ConfigError, MIConfig, SourceRef, Trajectory, scene_diagonal


def sdd_row(tid: int, x: int, y: int, frame: int, lost: int = 0, label: str = "Pedestrian") -> str:
    return f'{tid} {x - 2} {y - 2} {x + 2} {y + 2} {frame} {lost} 0 0 "{label}"'


def write_sdd_tree(root: Path) -> Path:
    video0 = root / "annotations" / "quad" / "video0"
    video1 = root / "annotations" / "quad" / "video1"
    video0.mkdir(parents=True)
    video1.mkdir(parents=True)

    rows = []
    for i in range(60):  # two pedestrians walking abreast, 4 px apart
        rows.append(sdd_row(0, 100 + i, 100, i))
        rows.append(sdd_row(1, 100 + i, 104, i))
    for i in range(40):  # biker, lost for its first 10 frames
        y = 200 if i < 10 else 200 + (i - 10)
        rows.append(sdd_row(2, 300, y, i, lost=1 if i < 10 else 0, label="Biker"))
    for i in range(5):  # parked cart, too short for anything
        rows.append(sdd_row(3, 400, 400, i, label="Cart"))
    (video0 / "annotations.txt").write_text("\n".join(rows) + "\n")

    rows = []
    for i in range(25):  # parked pedestrian, lost in the middle
        rows.append(sdd_row(0, 50, 50, i, lost=1 if 10 <= i < 15 else 0))
    (video1 / "annotations.txt").write_text("\n".join(rows) + "\n")
    return root / "annotations"


def write_config(path: Path, annotations: Path, out: Path, **extra) -> Path:
    lines = [
        "dataset: sdd",
        f"inputs: [{annotations}]",
        f"out: {out}",
        "preprocess:",
        "  target_rate: 30.0",
        "aim:",
        "  delta: 0.98",
        "  n_window: 5",
        "mi:",
        "  n_min: 6",
        "rho:",
        "  v0: 1.0",
        "  sigma_d: 125.0",
        "  a0: 0.25",
    ]
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def workspace(tmp_path):
    annotations = write_sdd_tree(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", annotations, out)
    return tmp_path, annotations, out, config


def run(argv) -> int:
    return main([str(a) for a in argv])


# --- ingest ---------------------------------------------------------------------


def test_ingest_sdd_creates_store(workspace, capsys) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    store = out / "store"
    names = sorted(p.name for p in store.iterdir())
    assert names == ["manifest.json", "sdd__quad__video0.jsonl", "sdd__quad__video1.jsonl"]
    manifest = json.loads((store / "manifest.json").read_text())
    assert {v["video"]: v["n_trajectories"] for v in manifest["videos"]} == {
        "video0": 4,
        "video1": 1,
    }
    assert "quad/video0" in manifest["diagnostics"]


def test_an_empty_video_is_neither_stored_counted_nor_listed(workspace, capsys) -> None:
    _, annotations, out, config = workspace
    (annotations / "quad" / "video1" / "annotations.txt").write_text("")
    assert run(["ingest", "--config", config]) == 0
    assert capsys.readouterr().err == f"ingested 4 trajectories (1 videos) into {out / 'store'}\n"
    manifest = json.loads((out / "store" / "manifest.json").read_text())
    assert [v["video"] for v in manifest["videos"]] == ["video0"]
    assert list(manifest["diagnostics"]) == ["quad/video0"]


def test_ingest_missing_input_named_on_stderr(tmp_path, capsys) -> None:
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "no_such_dir", tmp_path / "out"
    )
    assert run(["ingest", "--config", config]) != 0
    assert "no_such_dir" in capsys.readouterr().err


def test_ingest_parse_error_names_file_and_line(tmp_path, capsys) -> None:
    annotations = write_sdd_tree(tmp_path)
    bad = annotations / "quad" / "video1" / "annotations.txt"
    bad.write_text('0 1 2 3 4 0 0 0 0 "Pedestrian"\nnot a row\n')
    config = write_config(tmp_path / "config.yaml", annotations, tmp_path / "out")
    assert run(["ingest", "--config", config]) != 0
    err = capsys.readouterr().err
    assert "annotations.txt:2" in err


def test_ingest_parse_error_in_the_second_video_leaves_no_out(tmp_path, capsys) -> None:
    annotations = write_sdd_tree(tmp_path)
    bad = annotations / "quad" / "video1" / "annotations.txt"  # read after video0
    bad.write_text('0 1 2 3 4 0 0 0 0 "Pedestrian"\nnot a row\n')
    out = tmp_path / "nested" / "out"
    config = write_config(tmp_path / "config.yaml", annotations, out)
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: expected 10 fields, got 3\n"
    assert not (tmp_path / "nested").exists()


@pytest.mark.parametrize("inputs", ["", "inputs:\n", "inputs: null\n", "inputs: []\n"])
def test_ingest_without_inputs_is_one_error_line_and_no_out(tmp_path, capsys, inputs) -> None:
    out = tmp_path / "nested" / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\n{inputs}out: {out}\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == "error: config needs at least one entry under inputs:\n"
    assert not (tmp_path / "nested").exists()


@pytest.mark.parametrize("value, shown", [("0", "0"), ("false", "False"), ('""', "''")])
@pytest.mark.parametrize("command", ["ingest", "stats", "aim", "eval"])
def test_an_inputs_value_that_is_not_a_path_is_one_error_line(workspace, capsys, command, value, shown) -> None:
    _, annotations, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    config.write_text(config.read_text().replace(f"inputs: [{annotations}]", f"inputs: {value}"))
    capsys.readouterr()
    assert run([command, "--config", config]) == 1
    assert capsys.readouterr().err == f"error: config key inputs must be a non-empty string, got {shown}\n"
    assert sorted(p.name for p in out.iterdir()) == ["store"]


def test_a_reingest_leaves_only_its_own_videos_in_the_store(workspace, capsys) -> None:
    tmp_path, annotations, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    video0 = annotations / "quad" / "video0"
    write_config(config, video0, out)
    assert run(["ingest", "--config", config]) == 0
    fresh = tmp_path / "fresh"
    assert run(["ingest", "--config", config, "--out", fresh]) == 0
    assert tree_bytes(out / "store") == tree_bytes(fresh / "store")
    assert sorted(p.name for p in (out / "store").iterdir()) == ["manifest.json", "sdd__quad__video0.jsonl"]


def test_failed_reingest_leaves_the_store_as_it_was(workspace, capsys) -> None:
    _, annotations, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    before = {p.name: p.read_bytes() for p in (out / "store").iterdir()}
    video0 = annotations / "quad" / "video0" / "annotations.txt"
    video0.write_text(video0.read_text().replace('"Cart"', '"Skater"'))  # video0 reads, and differs
    (annotations / "quad" / "video1" / "annotations.txt").write_text("not a row\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err.endswith("annotations.txt:1: expected 10 fields, got 3\n")
    assert {p.name: p.read_bytes() for p in (out / "store").iterdir()} == before
    assert not list(out.rglob("*.partial"))


@pytest.mark.parametrize(
    "line, replacement, named",
    [
        ("  target_rate: 30.0", "  target_rate: 30.0\n  observe_len: abc", "preprocess.observe_len"),
        ("  target_rate: 30.0", "  target_rate: 30.0\n  predict_len: 2.5", "preprocess.predict_len"),
        ("  n_min: 6", "  n_min: 6\n  bandwidths: 8", "mi.bandwidths"),
        ("  a0: 0.25", '  a0: 0.25\n  use_h: "false"', "rho.use_h"),
        ("  delta: 0.98", "  delta: .nan", "aim.delta"),
        ("dataset: sdd", "dataset: [sdd", "not valid YAML"),
        ("inputs: [{annotations}]", "inputs: 5", "config key inputs"),
        ("out: {out}", "out: {file}", "taken.txt"),
        ("out: {out}", "", "no output directory: set out: in the config or pass --out"),
    ],
)
def test_bad_config_value_or_io_failure_is_one_error_line(
    workspace, capsys, line, replacement, named
) -> None:
    tmp_path, annotations, out, config = workspace
    taken = tmp_path / "taken.txt"
    taken.write_text("a regular file, not a directory\n")
    line, replacement = (
        t.format(annotations=annotations, out=out, file=taken) for t in (line, replacement)
    )
    text = config.read_text()
    assert line in text
    config.write_text(text.replace(line, replacement))
    assert run(["ingest", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


# the keys where null means the same as an absent key
NULLABLE = {"preprocess.stride", "rho.v0", "rho.sigma_d", "rho.a0", "aim.n_window", "mi.weights"}
# every key of the preprocess, rho, aim and mi sections
SECTION_KEYS = [
    "preprocess.lost_policy", "preprocess.drop_generated", "preprocess.target_rate",
    "preprocess.observe_len", "preprocess.predict_len", "preprocess.stride",
    "rho.alpha", "rho.v0", "rho.sigma_d", "rho.a0", "rho.use_v", "rho.use_d", "rho.use_h", "rho.use_a",
    "aim.delta", "aim.n_window", "mi.bandwidths", "mi.weights", "mi.n_min",
]


def test_absent_config_keys_take_the_dataclass_defaults(tmp_path) -> None:
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\n")
    cfg = load_run_config(config)
    assert cfg.preprocess == PreprocessConfig()
    assert cfg.rho == RhoConfig()
    assert (cfg.fit_v0, cfg.fit_sigma_d, cfg.fit_a0) == (True, True, True)
    assert (cfg.delta, cfg.n_window, cfg.mi.weights) == (aim.DEFAULT_DELTA, None, None)
    assert (cfg.mi.bandwidths, cfg.mi.n_min) == (DEFAULT_BANDWIDTHS, DEFAULT_N_MIN)
    assert cfg.export_format == "both"


def test_every_config_key_is_read(tmp_path) -> None:
    config = tmp_path / "config.yaml"
    config.write_text(
        f"dataset: ind\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\nexport_format: csv\n"
        "preprocess: {lost_policy: KEEP_LOST, drop_generated: true, target_rate: 5,"
        " observe_len: 3, predict_len: 4.0, stride: 2}\n"
        "rho: {alpha: 0, v0: 2, sigma_d: 50.5, a0: 3, use_v: false, use_d: false,"
        " use_h: false, use_a: true}\n"
        "aim: {delta: 1, n_window: 7}\n"
        "mi: {bandwidths: [4, 2.5], weights: [0.25, 0.75], n_min: 3}\n"
    )
    cfg = load_run_config(config)
    assert cfg.preprocess == PreprocessConfig(LostPolicy.KEEP_LOST, True, 5.0, 3, 4, 2)
    assert cfg.rho == RhoConfig(0.0, 2.0, 50.5, 3.0, False, False, False, True)
    assert (cfg.fit_v0, cfg.fit_sigma_d, cfg.fit_a0) == (False, False, False)
    assert (cfg.delta, cfg.n_window, cfg.mi.n_min) == (1.0, 7, 3)
    assert (cfg.mi.bandwidths, cfg.mi.weights) == ((4.0, 2.5), (0.25, 0.75))
    assert (cfg.dataset, cfg.export_format) == ("ind", "csv")
    # floats stay floats and integers integers, as the dataclasses declare them
    assert type(cfg.preprocess.target_rate) is float and type(cfg.rho.v0) is float
    assert type(cfg.preprocess.predict_len) is int


def test_a_loaded_config_makes_a_valid_estimator(tmp_path) -> None:
    # each value has the right type, but together they are no estimator
    config = tmp_path / "config.yaml"
    config.write_text(
        f"dataset: sdd\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\n"
        "mi: {bandwidths: [4, 2.5], weights: [1, 3]}\n"
    )
    with pytest.raises(ConfigError, match=r"^weights must be nonnegative and sum to 1, got \[1\.0, 3\.0\]$"):
        load_run_config(config)


def test_readme_config_reference_matches_the_config_keys_and_defaults(tmp_path) -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration reference", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    assert set(documented) == {"dataset", "inputs", "out", "registry", "export_format", *cli._SECTIONS}
    defaults = {
        "preprocess": dataclasses.asdict(PreprocessConfig()),
        "rho": dataclasses.asdict(RhoConfig()),
        "aim": {f.name: f.default for f in dataclasses.fields(cli.RunConfig)},
        "mi": dataclasses.asdict(MIConfig()),
    }
    for section, kinds in cli._SECTIONS.items():
        assert set(documented[section]) == set(kinds), section
        for key, value in documented[section].items():
            if value is None:  # absent, or fitted from the data
                assert f"{section}.{key}" in cli._NULLABLE
            else:
                assert cli._convert(key, value, kinds[key]) == defaults[section][key], f"{section}.{key}"
    # the optional top-level keys: a config without them reads as documented
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\n")
    cfg = load_run_config(config)
    assert (documented["registry"], documented["export_format"]) == (cfg.registry_path, cfg.export_format)


@pytest.mark.parametrize("key", SECTION_KEYS)
def test_null_config_value_is_absent_or_an_error_naming_the_key(tmp_path, key) -> None:
    section, name = key.split(".")
    base = f"dataset: sdd\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\n"
    absent = tmp_path / "absent.yaml"
    absent.write_text(base)
    null = tmp_path / "null.yaml"
    null.write_text(base + f"{section}:\n  {name}: null\n")
    if key in NULLABLE:
        assert load_run_config(null) == load_run_config(absent)
    else:
        with pytest.raises(ConfigError, match=f"{key}|lost policy None"):
            load_run_config(null)


@pytest.mark.parametrize("value", ["0", "false", "[]", '""'])
@pytest.mark.parametrize("section", ["preprocess", "rho", "aim", "mi"])
def test_a_config_section_set_to_a_non_mapping_is_one_error_line(workspace, capsys, section, value) -> None:
    """Only null or an absent key leaves a section empty; a falsy scalar or list is refused."""
    _, annotations, out, config = workspace
    config.write_text(f"dataset: sdd\ninputs: [{annotations}]\nout: {out}\n{section}: {value}\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: config section {section!r} must be a mapping\n"
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("0", "0"), ("false", "False")])
def test_a_registry_key_that_is_not_a_path_is_one_error_line(workspace, capsys, value, shown) -> None:
    _, annotations, out, config = workspace
    config.write_text(f"dataset: sdd\ninputs: [{annotations}]\nout: {out}\nregistry: {value}\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: config key registry must be a non-empty string, got {shown}\n"
    assert not out.exists()

    config.write_text(f"dataset: sdd\ninputs: [{annotations}]\nout: {out}\nregistry: null\n")
    assert load_run_config(config).registry_path is None  # the packaged registry


def test_an_input_file_not_named_as_the_dataset_names_its_files_is_one_error_line(tmp_path, capsys) -> None:
    annotations = write_sdd_tree(tmp_path / "sdd")
    notes = annotations / "quad" / "video0" / "notes.txt"
    notes.write_text((annotations / "quad" / "video0" / "annotations.txt").read_text())
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", notes, out)
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: input file {notes} does not match annotations.txt\n"
    assert not out.exists()

    meta = write_ind_recording(tmp_path / "ind").with_name("07_tracksMeta.csv")
    config.write_text(f"dataset: ind\ninputs: [{meta}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: input file {meta} does not match *_tracks.csv\n"
    assert not out.exists()

    # a file named as the dataset names its files is read as given
    config.write_text(f"dataset: ind\ninputs: [{meta.with_name('07_tracks.csv')}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 0
    write_config(config, notes.with_name("annotations.txt"), out)
    assert run(["ingest", "--config", config]) == 0
    assert [t.source.video for t in load_store(out / "store")] == ["video0"] * 4


def test_ingest_ind_store(tmp_path, capsys) -> None:
    data = tmp_path / "data"
    data.mkdir()
    header = "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,heading\n"
    rows = [
        f"0,{tid},{frame},0,{1.0 + 0.1 * frame},{-2.0},0.0"
        for tid in (1, 2)
        for frame in range(30)
    ]
    (data / "00_tracks.csv").write_text(header + "\n".join(rows) + "\n")
    (data / "00_tracksMeta.csv").write_text(
        "recordingId,trackId,initialFrame,finalFrame,numFrames,class\n"
        "0,1,0,29,30,pedestrian\n0,2,0,29,30,car\n"
    )
    (data / "00_recordingMeta.csv").write_text(
        "recordingId,locationId,frameRate,orthoPxToMeter\n0,1,25.0,0.01\n"
    )
    config = tmp_path / "config.yaml"
    config.write_text(
        f"dataset: ind\ninputs: [{data}]\nout: {tmp_path / 'out'}\n"
    )
    assert run(["ingest", "--config", config]) == 0
    trajs = load_store(tmp_path / "out" / "store")
    assert {t.class_label for t in trajs} == {"Pedestrian", "Car"}

    (data / "00_tracksMeta.csv").unlink()
    assert run(["ingest", "--config", config]) != 0
    assert "00_tracksMeta.csv" in capsys.readouterr().err


def write_ind_recording(data: Path, n_tracks: int = 5, recording: int = 7) -> Path:
    """A recording at location 2: n_tracks pedestrians walking for 30 frames."""
    data.mkdir(parents=True)
    header = "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,heading\n"
    rows = [
        f"{recording},{tid},{frame},0,{1.0 + 0.1 * frame},{tid},0.0"
        for tid in range(n_tracks)
        for frame in range(30)
    ]
    (data / f"{recording:02d}_tracks.csv").write_text(header + "\n".join(rows) + "\n")
    meta = [f"{recording},{tid},0,29,30,pedestrian" for tid in range(n_tracks)]
    (data / f"{recording:02d}_tracksMeta.csv").write_text(
        "recordingId,trackId,initialFrame,finalFrame,numFrames,class\n" + "\n".join(meta) + "\n"
    )
    (data / f"{recording:02d}_recordingMeta.csv").write_text(
        f"recordingId,locationId,frameRate,orthoPxToMeter\n{recording},2,25.0,0.01\n"
    )
    return data / f"{recording:02d}_tracks.csv"


def test_two_sdd_files_for_one_video_is_an_error(tmp_path, capsys) -> None:
    first = write_sdd_tree(tmp_path / "a") / "quad" / "video0" / "annotations.txt"
    second = write_sdd_tree(tmp_path / "b") / "quad" / "video0" / "annotations.txt"
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", f"{tmp_path / 'a'}, {tmp_path / 'b'}", out)
    assert run(["ingest", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == f"error: two input files for video quad/video0: {first} and {second}\n"
    assert not out.exists()

    # one file reached through two inputs, spelled two ways, is still one video
    again = tmp_path / "b" / ".." / first.relative_to(tmp_path)
    write_config(config, f"{tmp_path / 'a'}, {again}", out)
    assert run(["ingest", "--config", config]) == 0
    manifest = json.loads((out / "store" / "manifest.json").read_text())
    assert {v["video"]: v["n_trajectories"] for v in manifest["videos"]} == {"video0": 4, "video1": 1}


def test_two_ind_recordings_for_one_video_is_an_error(tmp_path, capsys) -> None:
    first = write_ind_recording(tmp_path / "a")
    second = write_ind_recording(tmp_path / "b")
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'a'}, {tmp_path / 'b'}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == f"error: two input files for video location2/7: {first} and {second}\n"
    assert not out.exists()

    # one file reached through two inputs, spelled two ways, is still one video
    again = tmp_path / "b" / ".." / first.relative_to(tmp_path)
    config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'a'}, {again}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 0
    manifest = json.loads((out / "store" / "manifest.json").read_text())
    assert manifest["diagnostics"]["location2/7"]["n_trajectories"] == 5
    assert sorted(t.uid for t in load_store(out / "store")) == ["0", "1", "2", "3", "4"]



def test_ind_repeated_frame_is_one_error_line_naming_the_video(tmp_path, capsys) -> None:
    tracks = write_ind_recording(tmp_path / "data")
    lines = tracks.read_text().splitlines(keepends=True)
    tracks.write_text("".join(lines[:4] + lines[3:]))  # track 0's frame 2 twice
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'data'}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == "error: track 0 of ('ind', 'location2', '7'): duplicate frame 2\n"
    assert not out.exists()


def test_an_ind_recording_that_cannot_be_placed_is_one_error_line(tmp_path, capsys) -> None:
    rec_meta = write_ind_recording(tmp_path / "two").with_name("07_recordingMeta.csv")
    rec_meta.write_text(rec_meta.read_text() + "7,2,25.0,0.01\n")
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'two'}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {rec_meta}: expected exactly one recording row, got 2\n"
    assert not out.exists()


def test_an_ind_recording_outside_every_intersection_is_a_stats_group_of_its_own(tmp_path, capsys) -> None:
    write_ind_recording(tmp_path / "forty", recording=40)  # above the registry's last intersection, 30-32
    write_ind_recording(tmp_path / "seven", n_tracks=3)  # in 7-17
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'forty'}, {tmp_path / 'seven'}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 0
    assert run(["stats", "--config", config]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == f"wrote 4 report files to {out / 'reports'}"
    assert (out / "reports" / "lost_stats.csv").read_text().splitlines() == [
        "scene,n_trajectories,pct_lost_start,pct_lost_middle,pct_lost_end",
        "40-40,5,0.00,0.00,0.00",
        "7-17,3,0.00,0.00,0.00",
    ]
    assert (out / "reports" / "class_distribution.csv").read_text().splitlines() == [
        "scene,n_tracks,Pedestrian,Biker,Car,TruckBus",
        "40-40,5,100.00,0.00,0.00,0.00",
        "7-17,3,100.00,0.00,0.00,0.00",
    ]


def test_stats_on_an_ind_video_that_is_not_a_recording_number_is_one_error_line(tmp_path, capsys) -> None:
    points = np.zeros(3, POINT_DTYPE)
    points["frame"] = [0, 1, 2]
    out = tmp_path / "out"
    write_store([([Trajectory(0, "Car", points, SourceRef("ind", "location1", "abc"))], {})], out / "store")
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: ind\nout: {out}\n")
    assert run(["stats", "--config", config]) == 1
    *warnings, error = capsys.readouterr().err.splitlines()  # stats loads the registry first
    assert error == "error: ind video 'abc' is not a recording number"
    assert all(line.startswith("warning: sdd scene ") for line in warnings)
    assert sorted(p.name for p in out.iterdir()) == ["store"]


# --- stats ------------------------------------------------------------------------


def test_stats_reports(workspace, capsys) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    assert run(["stats", "--config", config]) == 0
    reports = out / "reports"

    lost_csv = (reports / "lost_stats.csv").read_text()
    assert lost_csv.splitlines()[0] == (
        "scene,n_trajectories,pct_lost_start,pct_lost_middle,pct_lost_end"
    )
    assert "quad,5,20.00,20.00,0.00" in lost_csv

    class_csv = (reports / "class_distribution.csv").read_text()
    header, quad_row = class_csv.splitlines()[0], class_csv.splitlines()[1]
    assert header == "scene,n_tracks,Pedestrian,Biker,Skater,Cart,Car,Bus"
    assert quad_row == "quad,5,60.00,20.00,0.00,20.00,0.00,0.00"

    lost_jsonl = [
        json.loads(line)
        for line in (reports / "lost_stats.jsonl").read_text().splitlines()
    ]
    assert lost_jsonl[0]["pct_lost_start"] == 20.0

    overlap_csv = (reports / "overlap_report.csv").read_text().splitlines()
    assert overlap_csv[0] == "scene,location_overlap,time_overlap,simultaneous_groups"
    assert "coupa,partial,full,1-2-3-4" in overlap_csv
    assert "deathcircle,full,none," in overlap_csv


@pytest.mark.parametrize("command", ["stats", "eval"])
def test_registry_warnings_on_stderr_only(workspace, capsys, command) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run([command, "--config", config]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
    assert any("sdd scene gates" in line for line in warnings)
    assert any("sdd scene coupa" in line for line in warnings)
    assert len(warnings) == len(load_registry().warnings)
    for path in out.rglob("*"):
        if path.is_file():
            assert b"warning" not in path.read_bytes(), path


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dataset", ["sdd", "ind"])
def test_stats_writes_the_planted_rows(tmp_path, dataset, seed) -> None:
    expected = (plant.sdd_tree if dataset == "sdd" else plant.ind_tree)(tmp_path / "raw", seed)
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: {dataset}\ninputs: [{tmp_path / 'raw'}]\nout: {out}\nexport_format: csv\n")
    assert run(["ingest", "--config", config]) == 0
    assert run(["stats", "--config", config]) == 0
    for name, rows in expected.items():
        with open(out / "reports" / f"{name}.csv", newline="") as fh:
            assert list(csv.reader(fh)) == rows


@pytest.mark.parametrize(
    "write", [plant.sdd_tree, plant.ind_tree, plant.crossing_tree, plant.fragment_tree, plant.lost_walk_tree]
)
def test_a_planted_tree_is_the_same_bytes_for_one_seed(tmp_path, write) -> None:
    def files(root: Path) -> dict:
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    assert write(tmp_path / "a", 5) == write(tmp_path / "b", 5)
    assert files(tmp_path / "a") == files(tmp_path / "b")
    write(tmp_path / "c", 6)
    assert files(tmp_path / "c") != files(tmp_path / "a")


@pytest.mark.parametrize("seed", [0, 7])
def test_aim_ranks_the_planted_crossing_pair_first(tmp_path, seed) -> None:
    planted = plant.crossing_tree(tmp_path / "raw", seed)
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"  # no rho: section, so v0, a0 and sigma_d are fitted
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path / 'raw'}]\nout: {out}\nexport_format: csv\n")
    assert run(["ingest", "--config", config]) == 0
    # the planted distances, as the store holds them
    tracks = {t.uid: t for t in load_store(out / "store")}
    i, j = planted["pair"]
    for a, b in combinations(tracks, 2):
        _, rows_a, rows_b = np.intersect1d(tracks[a].frames(), tracks[b].frames(), return_indices=True)
        gaps = np.hypot(*(tracks[a].xy()[rows_a] - tracks[b].xy()[rows_b]).T)
        if {a, b} == {i, j}:
            close = tracks[a].frames()[rows_a][gaps <= plant.CLOSE]
            assert (close[0], close[-1]) == planted["span"]
        else:
            assert (gaps >= plant.WALKER_GAP).all()

    def exported(top_k: int) -> set[tuple[str, str]]:
        assert run(["aim", "--config", config, "--top-k", top_k]) == 0
        metas = [json.loads(p.read_text()) for p in (out / "aim").glob("*.meta.json")]
        return {(meta["agent_i"], meta["agent_j"]) for meta in metas}

    assert exported(2) == {(i, j), (j, i)}
    (best,) = exported(1)
    assert best in {(i, j), (j, i)}


@pytest.mark.parametrize("seed", [0, 7])
def test_split_candidates_are_the_planted_cuts_inside_the_gates(tmp_path, seed) -> None:
    planted = plant.fragment_tree(tmp_path / "raw", seed)
    assert len(planted["cuts"]) == len(plant.FRAGMENT_CUTS) and len(planted["joins"]) == 4
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path / 'raw'}]\nout: {out}\n")
    assert run(["ingest", "--config", config]) == 0
    ((key, trajectories),) = videos(out / "store")
    assert key == ("sdd", *plant.FRAGMENT_VIDEO)
    candidates = detect_split_candidates(trajectories)
    assert sorted((c.predecessor, c.successor, c.frame_gap, c.spatial_gap) for c in candidates) == planted["joins"]


@pytest.mark.parametrize("seed", [0, 7])
def test_eval_scores_the_planted_lost_walks_under_each_lost_policy(tmp_path, seed) -> None:
    expected = plant.lost_walk_tree(tmp_path / "raw", seed)
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path / 'raw'}]\nout: {out}\nexport_format: csv\n")
    assert run(["ingest", "--config", config]) == 0
    assert run(["stats", "--config", config]) == 0
    with open(out / "reports" / "lost_stats.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected["lost_stats"]
    policies = ("keep_lost", "filter_keep_first", "filter_keep_all")
    assert run(["eval", "--config", config, "--lost-policy", ",".join(policies)]) == 0
    with open(out / "reports" / "eval.csv", newline="") as fh:
        errors = {(row["config"], row["group"]): (float(row["ade"]), float(row["fde"])) for row in csv.DictReader(fh)}
    assert sorted(errors) == sorted((p, g) for p in policies for g in ("all", "Pedestrian", "Biker"))
    for (policy, group), (ade, fde) in errors.items():
        if group != "all" and (policy, group) != plant.LOST_WALK_DRIFT:
            assert ade == fde == 0, (policy, group)
    assert errors[plant.LOST_WALK_DRIFT][0] > 0


@pytest.mark.parametrize("first, then", [("both", "csv"), ("both", "jsonl"), ("csv", "jsonl")])
@pytest.mark.parametrize("command", ["stats", "eval"])
def test_the_reports_hold_the_last_run_only(workspace, command, first, then) -> None:
    tmp_path, _, out, config = workspace
    text = config.read_text()
    assert run(["ingest", "--config", config]) == 0
    config.write_text(text + f"export_format: {first}\n")
    assert run([command, "--config", config]) == 0
    config.write_text(text + f"export_format: {then}\n")
    assert run([command, "--config", config]) == 0
    fresh = tmp_path / "fresh"
    assert run(["ingest", "--config", config, "--out", fresh]) == 0
    assert run([command, "--config", config, "--out", fresh]) == 0
    assert tree_bytes(out / "reports") == tree_bytes(fresh / "reports")


@pytest.mark.parametrize("first, then", [("sdd", "ind"), ("ind", "sdd")])
def test_stats_removes_the_tables_its_dataset_does_not_write(tmp_path, capsys, first, then) -> None:
    out = tmp_path / "out"
    for dataset in (first, then):
        getattr(plant, f"{dataset}_tree")(tmp_path / dataset, 0)
        config = tmp_path / f"{dataset}.yaml"
        config.write_text(f"dataset: {dataset}\ninputs: [{tmp_path / dataset}]\nout: {out}\n")
        assert run(["ingest", "--config", config]) == 0
        assert run(["stats", "--config", config]) == 0
        for name in ("eval.csv", "eval.jsonl"):  # another command's table, which stats leaves
            (out / "reports" / name).write_text("kept\n")
    tables = ["class_distribution", "lost_stats", *(["overlap_report"] if then == "sdd" else [])]
    assert capsys.readouterr().err.splitlines()[-1] == f"wrote {2 * len(tables)} report files to {out / 'reports'}"
    names = [f"{name}.{ext}" for name in ["eval", *tables] for ext in ("csv", "jsonl")]
    assert sorted(p.name for p in (out / "reports").iterdir()) == sorted(names)


def test_stats_requires_ingest(workspace, capsys) -> None:
    _, _, _, config = workspace
    assert run(["stats", "--config", config]) != 0
    assert "ingest" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "eval", "aim"])
def test_a_nan_in_the_store_is_one_error_line_and_no_output(workspace, capsys, command) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    victim = out / "store" / "sdd__quad__video0.jsonl"
    lines = victim.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(", 104.0, ", ", NaN, ", 1)  # track 1's first y
    victim.write_text("".join(lines))
    capsys.readouterr()
    assert run([command, "--config", config]) == 1
    *warnings, error = capsys.readouterr().err.splitlines()  # stats and eval load the registry first
    assert error == f"error: corrupt store file {victim}: line 2: a coordinate that is not finite"
    assert all(line.startswith("warning: sdd scene ") for line in warnings)
    assert sorted(p.name for p in out.iterdir()) == ["store"]


@pytest.mark.parametrize("command", ["stats", "eval", "aim"])
def test_a_manifest_repeating_a_video_is_one_error_line_and_no_output(workspace, capsys, command) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    manifest_path = out / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["videos"].append(manifest["videos"][-1])
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run([command, "--config", config]) == 1
    *warnings, error = capsys.readouterr().err.splitlines()  # stats and eval load the registry first
    video1 = ("sdd", "quad", "video1")
    assert error == f"error: corrupt store file {manifest_path}: video {video1} does not follow {video1}"
    assert len(warnings) <= 2 and all(line.startswith("warning: sdd scene ") for line in warnings)
    assert sorted(p.name for p in out.iterdir()) == ["store"]


@pytest.mark.parametrize("dataset", ["sdd", "ind"])
def test_after_ingest_the_store_is_the_only_input(tmp_path, capsys, dataset) -> None:
    raw = tmp_path / "raw"
    write_sdd_tree(raw) if dataset == "sdd" else write_ind_recording(raw / "data")
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(
        f"dataset: {dataset}\ninputs: [{raw}]\nout: {out}\n"
        f"preprocess: {{target_rate: {30.0 if dataset == 'sdd' else 25.0}}}\n"
        "aim: {n_window: 5}\nmi: {n_min: 6}\nrho: {v0: 1.0, sigma_d: 125.0, a0: 0.25}\n"
    )
    assert run(["ingest", "--config", config]) == 0
    commands = [["stats"], ["aim"], ["aim", "--pair", "0,1", "--sweep-n", "5,8", "--sweep-delta", "0.9,1.0"], ["eval"]]

    def outputs() -> tuple[dict, str]:
        capsys.readouterr()
        for command, *options in commands:
            assert run([command, "--config", config, *options]) == 0
        files = {path: path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
        return files, capsys.readouterr().err

    present = outputs()
    shutil.rmtree(raw)
    shutil.rmtree(out / "reports")
    shutil.rmtree(out / "aim")
    assert outputs() == present
    # a config that names only the store runs every analysis
    config.write_text("".join(line for line in config.read_text().splitlines(True) if not line.startswith("inputs:")))
    shutil.rmtree(out / "reports")
    shutil.rmtree(out / "aim")
    assert outputs() == present


def test_only_stats_and_eval_need_the_registry(workspace, capsys) -> None:
    tmp_path, _, out, config = workspace
    missing = tmp_path / "no_such_registry.yaml"
    config.write_text(config.read_text() + f"registry: {missing}\n")
    assert run(["ingest", "--config", config]) == 0
    assert run(["aim", "--config", config]) == 0
    capsys.readouterr()
    for command in ("stats", "eval"):
        assert run([command, "--config", config]) == 1
        assert capsys.readouterr().err == f"error: registry file does not exist: {missing}\n"
    assert sorted(p.name for p in out.iterdir()) == ["aim", "store"]


@pytest.mark.parametrize("command", ["stats", "eval", "aim"])
def test_a_store_of_another_dataset_is_one_error_line_and_no_output(workspace, capsys, command) -> None:
    tmp_path, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    # an inD config that reaches the SDD store by --out; its inputs are never read
    ind_config = tmp_path / "ind.yaml"
    ind_config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'no_such_dir'}]\nout: {tmp_path / 'elsewhere'}\n")
    capsys.readouterr()
    assert run([command, "--config", ind_config, "--out", out]) == 1
    *warnings, error = capsys.readouterr().err.splitlines()  # stats and eval load the registry first
    store = out / "store"
    assert error == f"error: store {store} holds video quad/video0 of dataset 'sdd', but the config names dataset 'ind'"
    assert all(line.startswith("warning: sdd scene ") for line in warnings)
    assert sorted(p.name for p in out.iterdir()) == ["store"]
    assert not (tmp_path / "elsewhere").exists()


# --- aim ---------------------------------------------------------------------------


def test_aim_pair_export(workspace) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    assert run(["aim", "--config", config, "--pair", "0,1"]) == 0
    aim_dir = out / "aim"
    base = "sdd__quad__video0__pair_0_1"
    csv_path = aim_dir / f"{base}.csv"
    jsonl_path = aim_dir / f"{base}.jsonl"
    meta_path = aim_dir / f"{base}.meta.json"
    assert csv_path.is_file() and jsonl_path.is_file() and meta_path.is_file()

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "frame,xi,yi,xj,yj,mi,rho,aim"
    # first measured frame: warm-up buffer of 5 frames
    first = lines[1].split(",")
    assert first[0] == "5"
    assert first[1] == "105.000000"  # 6-decimal fixed formatting
    assert len(lines) == 1 + (60 - 5)

    meta = json.loads(meta_path.read_text())
    assert meta["delta"] == 0.98
    assert meta["n_window"] == 5
    assert meta["agent_i"] == "0" and meta["agent_j"] == "1"
    assert meta["sigma_d"] == 125.0

    records = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert records[0]["frame"] == 5
    assert all(rec["aim"] >= 0 for rec in records)


def test_aim_unknown_track(workspace, capsys) -> None:
    _, _, _, config = workspace
    run(["ingest", "--config", config])
    assert run(["aim", "--config", config, "--pair", "0,77"]) != 0
    assert "77" in capsys.readouterr().err


def test_aim_insufficient_co_presence(workspace, capsys) -> None:
    _, _, _, config = workspace
    run(["ingest", "--config", config])
    # the cart (track 3) only exists for 5 frames: shorter than the buffer
    assert run(["aim", "--config", config, "--pair", "0,3"]) != 0
    assert "co-present" in capsys.readouterr().err


def test_aim_pair_naming_one_track_twice_is_one_error_line(workspace, capsys) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["aim", "--config", config, "--pair", "0,0"]) == 1
    assert capsys.readouterr().err == "error: --pair names track '0' twice; a pair needs two tracks\n"
    assert not (out / "aim").exists()


def test_aim_unknown_pair_track_is_reported_before_the_fit(tmp_path, capsys, monkeypatch) -> None:
    annotations = write_sdd_tree(tmp_path)
    out = tmp_path / "out"
    config = fitted_config(tmp_path / "config.yaml", annotations, out)
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    fits = counting(monkeypatch, aim, "fit_normalizers")
    assert run(["aim", "--config", config, "--pair", "0,99"]) == 1
    assert capsys.readouterr().err == "error: unknown track id '99' (not in the ingested store)\n"
    assert fits == []
    assert not (out / "aim").exists()


def test_aim_top_k(workspace) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    assert run(["aim", "--config", config, "--top-k", "3"]) == 0
    series = sorted(p.name for p in (out / "aim").glob("*.csv"))
    assert len(series) == 3


def test_aim_writes_the_series_of_its_last_run_only(workspace, capsys) -> None:
    tmp_path, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    assert run(["aim", "--config", config, "--top-k", "100"]) == 0
    many = tree_bytes(out / "aim")
    assert len(many) > 6
    # an error before the first series is written leaves the earlier ones
    assert run(["aim", "--config", config, "--pair", "0,99"]) == 1
    assert tree_bytes(out / "aim") == many
    capsys.readouterr()
    assert run(["aim", "--config", config, "--top-k", "2"]) == 0
    assert capsys.readouterr().err.startswith(f"exported 2 measure series for 2 directed pairs to {out / 'aim'} ")
    fresh = tmp_path / "fresh"
    assert run(["ingest", "--config", config, "--out", fresh]) == 0
    assert run(["aim", "--config", config, "--out", fresh, "--top-k", "2"]) == 0
    assert tree_bytes(out / "aim") == tree_bytes(fresh / "aim")
    assert len(tree_bytes(out / "aim")) == 2 * 3  # csv, jsonl and meta.json per series


def fitted_config(path: Path, annotations: Path, out: Path) -> Path:
    """The workspace config with v0, a0 and sigma_d fitted from the data."""
    text = write_config(path, annotations, out).read_text()
    path.write_text(text.replace("  v0: 1.0\n  sigma_d: 125.0\n  a0: 0.25\n", "  alpha: 0.3\n"))
    return path


def counting(monkeypatch, module, name: str) -> list:
    calls: list = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_an_aim_run_builds_its_estimator_settings_once(workspace, monkeypatch) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    built = counting(monkeypatch, MIConfig, "__post_init__")
    bounded = counting(monkeypatch, aim, "mi_prefix_bound")
    measured = counting(monkeypatch, aim, "mi_prefix_series")
    assert run(["aim", "--config", config]) == 0
    assert len(built) == 1  # the loader's; every pair's bound and measurement uses it
    assert len(bounded) > 1 and len(measured) > 1
    cfg = load_run_config(config)
    assert len(built) == 2
    assert aim.select(videos(cfg.store_dir), cfg).series
    assert len(built) == 2  # select builds none


def test_aim_top_k_exports_the_ranked_series(tmp_path, monkeypatch) -> None:
    annotations = write_sdd_tree(tmp_path)
    out = tmp_path / "out"
    config = fitted_config(tmp_path / "config.yaml", annotations, out)
    run(["ingest", "--config", config])
    mi_calls = counting(monkeypatch, aim, "mi_prefix_series")
    kinematics_calls = counting(monkeypatch, aim, "PairKinematics")
    assert run(["aim", "--config", config, "--top-k", "4"]) == 0

    by_video: dict = {}
    for traj in load_store(out / "store"):
        by_video.setdefault(traj.source.key(), []).append(traj)
    pairs = {key: extract_interactions(trajs, 5) for key, trajs in by_video.items()}
    n_unordered = sum(len(p) // 2 for p in pairs.values())
    assert n_unordered == 3
    # at most one MI series per unordered pair (it serves both directions),
    # and exactly one for the pair of each exported series
    measured = [
        next(
            frozenset(p.key)
            for ps in pairs.values()
            for p in ps[::2]
            if np.array_equal(args[0], np.stack([p.xi, p.xj], axis=1))
        )
        for args in mi_calls
    ]
    assert len(measured) == len(set(measured)) <= n_unordered
    # one kinematics pass per pair serves the fit and both directions
    assert len(kinematics_calls) == n_unordered

    fitted = fit_normalizers([p for ps in pairs.values() for p in ps[::2]])
    cfg = load_run_config(config, str(tmp_path / "expected"))
    metas = sorted((out / "aim").glob("*.meta.json"))
    assert len(metas) == 4
    for meta_path in metas:
        meta = json.loads(meta_path.read_text())
        assert (meta["v0"], meta["a0"]) == (fitted.v0, fitted.a0)
        key = (meta["dataset"], meta["scene"], meta["video"])
        (pair,) = [p for p in pairs[key] if p.key == (meta["agent_i"], meta["agent_j"])]
        rho = RhoConfig(**{f: meta[f] for f in ("alpha", "v0", "sigma_d", "a0", "use_v", "use_d", "use_h", "use_a")})
        alone = measure_interaction(pair, delta=meta["delta"], rho_config=rho, mi_config=MIConfig(n_min=meta["n_min"]))
        cli._export_series(cfg, key, alone, swept=False)
        assert frozenset(pair.key) in measured
        stem = meta_path.name[: -len(".meta.json")]
        for suffix in (".csv", ".jsonl", ".meta.json"):
            exported = (out / "aim" / f"{stem}{suffix}").read_bytes()
            assert exported == (cfg.aim_dir / f"{stem}{suffix}").read_bytes(), stem + suffix


def test_aim_pair_fits_sigma_d_from_the_whole_video(tmp_path) -> None:
    annotations = write_sdd_tree(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", annotations, out)
    config.write_text(config.read_text().replace("sigma_d: 125.0", "sigma_d: null"))
    run(["ingest", "--config", config])
    assert run(["aim", "--config", config, "--pair", "0,1"]) == 0
    (meta_path,) = (out / "aim").glob("*.meta.json")
    meta = json.loads(meta_path.read_text())
    video = [t for t in load_store(out / "store") if t.source.video == "video0"]
    assert len(video) == 4
    named = [t for t in video if t.uid in ("0", "1")]
    assert scene_diagonal(named) != scene_diagonal(video)
    assert meta["sigma_d"] == scene_diagonal(video) / 8.0
    assert (meta["v0"], meta["a0"]) == (1.0, 0.25)


def write_walker_tree(root: Path, seed: int, tracks: dict[str, int], copy: bool = False) -> Path:
    """Random walkers with integer coordinates, per video; with `copy`, every
    video holds the first video's walkers."""
    rng = np.random.default_rng(seed)
    texts = []
    for n_tracks in tracks.values():
        rows = []
        for track in range(n_tracks):
            start, length = int(rng.integers(0, 12)), int(rng.integers(14, 45))
            steps = rng.integers(-3, 4, (length, 2))
            steps[0] = rng.integers(0, 600, 2)
            xy = np.cumsum(steps, axis=0).tolist()
            rows += [sdd_row(track, x, y, start + k) for k, (x, y) in enumerate(xy)]
        texts.append("\n".join(rows) + "\n")
    for video, text in zip(tracks, [texts[0]] * len(texts) if copy else texts):
        (root / "annotations" / "walk" / video).mkdir(parents=True)
        (root / "annotations" / "walk" / video / "annotations.txt").write_text(text)
    return root / "annotations"


def write_parked_tree(root: Path, n_tracks: int) -> Path:
    rows = [sdd_row(track, 50 + 3 * track, 80, frame) for track in range(n_tracks) for frame in range(20)]
    (root / "annotations" / "lot" / "video0").mkdir(parents=True)
    (root / "annotations" / "lot" / "video0" / "annotations.txt").write_text("\n".join(rows) + "\n")
    return root / "annotations"


def by_video_of(trajectories) -> dict:
    by_video: dict = {}
    for traj in trajectories:
        by_video.setdefault(traj.source.key(), []).append(traj)
    return by_video


def top_k_oracle(config: Path, k: int, expected_out: Path) -> None:
    """The ranking without pruning: measure every pair, export the k best series."""
    cfg = load_run_config(config)
    by_video = by_video_of(load_store(cfg.store_dir))
    pairs = {key: extract_interactions(by_video[key], 5)[::2] for key in sorted(by_video)}
    rho = cfg.rho
    if cfg.fit_v0 or cfg.fit_a0:
        fitted = fit_normalizers([p for ps in pairs.values() for p in ps], base=rho)
        rho = dataclasses.replace(
            rho, v0=fitted.v0 if cfg.fit_v0 else rho.v0, a0=fitted.a0 if cfg.fit_a0 else rho.a0
        )
    measured = []
    for key, video_pairs in pairs.items():
        video_rho = rho
        if cfg.fit_sigma_d and scene_diagonal(by_video[key]) > 0:
            video_rho = dataclasses.replace(rho, sigma_d=scene_diagonal(by_video[key]) / 8.0)
        for pair in video_pairs:
            for series in sweep(
                pair, [cfg.delta], [5], rho_config=video_rho, mi_config=cfg.mi, both_directions=True
            ):
                measured.append((key, series))
    best = heapq.nsmallest(k, measured, key=lambda item: (-item[1].final, item[0], item[1].pair.key))
    expected = load_run_config(config, str(expected_out))
    for key, series in best:
        cli._export_series(expected, key, series, swept=False)


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize(
    "store, fitted, k",
    [
        ("walkers", True, 3),
        ("walkers", False, 3),
        ("walkers", True, 1000),  # more than the directed pairs
        ("copies", False, 3),  # every value tied across the two videos
        ("copies", True, 5),
        ("parked", False, 2),  # alpha 0: every final and every bound is 0
        ("parked", False, 3),
    ],
)
def test_aim_pruned_top_k_equals_measuring_every_pair(tmp_path, capsys, store, fitted, k) -> None:
    if store == "parked":
        annotations = write_parked_tree(tmp_path, 4)
    else:
        annotations = write_walker_tree(
            tmp_path, 7, {"video0": 7, "video1": 5} if store == "walkers" else {"video0": 6, "video1": 6},
            copy=store == "copies",
        )
    out = tmp_path / "out"
    config = (fitted_config if fitted else write_config)(tmp_path / "config.yaml", annotations, out)
    if store == "parked":
        config.write_text(config.read_text().replace("rho:\n", "rho:\n  alpha: 0.0\n"))
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["aim", "--config", config, "--top-k", k]) == 0
    status = capsys.readouterr().err
    top_k_oracle(config, k, tmp_path / "expected")
    exported = tree_bytes(out / "aim")
    assert sorted(exported) == sorted(tree_bytes(tmp_path / "expected" / "aim"))
    assert exported == tree_bytes(tmp_path / "expected" / "aim")
    if store == "parked":
        assert sorted(name for name in exported if name.endswith(".csv"))[:k] == sorted(
            f"sdd__lot__video0__pair_{i}_{j}.csv" for i, j in [(0, 1), (0, 2), (0, 3)][:k]
        )
    assert "skipped by the bound" in status


def test_aim_status_counts_the_pairs(tmp_path, monkeypatch, capsys) -> None:
    annotations = write_walker_tree(tmp_path, 7, {"video0": 7, "video1": 5})
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", annotations, out)
    assert run(["ingest", "--config", config]) == 0
    measurable = sum(
        len(extract_interactions(trajs, 5)) // 2
        for trajs in by_video_of(load_store(out / "store")).values()
    )
    mi_calls = counting(monkeypatch, aim, "mi_prefix_series")
    capsys.readouterr()
    assert run(["aim", "--config", config, "--top-k", "2"]) == 0
    measured = len(mi_calls)
    assert 0 < measured < measurable
    assert capsys.readouterr().err == (
        f"exported 2 measure series for 2 directed pairs to {out / 'aim'} (31 pairs considered, "
        f"{measurable} measurable, {measured} measured, {measurable - measured} skipped by the bound)\n"
    )


@pytest.mark.parametrize("fitted", [False, True])
def test_aim_n_min_above_the_first_eval_point_is_one_error_line(tmp_path, capsys, fitted) -> None:
    annotations = write_sdd_tree(tmp_path)
    config = (fitted_config if fitted else write_config)(tmp_path / "c.yaml", annotations, tmp_path / "out")
    config.write_text(config.read_text().replace("n_min: 6", "n_min: 7"))
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["aim", "--config", config]) == 1
    assert capsys.readouterr().err == "error: first eval point 6 is below the 7-sample minimum\n"


@pytest.mark.parametrize(
    "argv, n_min, first",
    [([], 7, 6), (["--sweep-n", "1"], 6, 2), (["--pair", "0,9", "--sweep-n", "3,8"], 6, 4)],
    ids=["n_window", "sweep-n", "pair-sweep-n"],
)
def test_aim_n_min_above_the_first_eval_point_is_found_before_the_store(workspace, capsys, argv, n_min, first) -> None:
    _, _, out, config = workspace  # nothing ingested, and track 9 is in no store
    config.write_text(config.read_text().replace("n_min: 6", f"n_min: {n_min}"))
    assert run(["aim", "--config", config, *argv]) == 1
    assert capsys.readouterr().err == f"error: first eval point {first} is below the {n_min}-sample minimum\n"
    assert not out.exists()


def test_aim_sweep(workspace) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    assert (
        run(
            [
                "aim", "--config", config, "--pair", "0,1",
                "--sweep-delta", "1.0,0.5", "--sweep-n", "5,8",
            ]
        )
        == 0
    )
    names = sorted(p.name for p in (out / "aim").glob("*pair_0_1*.csv"))
    assert names == [
        "sdd__quad__video0__pair_0_1__d0.5__n5.csv",
        "sdd__quad__video0__pair_0_1__d0.5__n8.csv",
        "sdd__quad__video0__pair_0_1__d1.0__n5.csv",
        "sdd__quad__video0__pair_0_1__d1.0__n8.csv",
    ]


@pytest.mark.parametrize(
    "flag, value, expected",
    [
        ("--sweep-n", "5,nan", "an integer, got 'nan'"),
        ("--sweep-n", "inf", "an integer, got 'inf'"),
        ("--sweep-n", "5,30.7", "an integer, got '30.7'"),
        ("--sweep-n", "1e400", "an integer, got '1e400'"),
        ("--sweep-n", "five", "an integer, got 'five'"),
        ("--sweep-delta", "1.0,nan", "a finite number, got 'nan'"),
        ("--sweep-delta", "0.5,-inf", "a finite number, got '-inf'"),
        ("--sweep-delta", "abc", "a finite number, got 'abc'"),
        ("--sweep-delta", "1,1.0", "a list of distinct values, got '1' and '1.0'"),
        ("--sweep-n", "25,8,25", "a list of distinct values, got '25' and '25'"),
        ("--sweep-n", "5,5.0", "a list of distinct values, got '5' and '5.0'"),
    ],
)
def test_bad_sweep_item_is_one_error_line_naming_the_flag(
    workspace, capsys, flag, value, expected
) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["aim", "--config", config, "--pair", "0,1", flag, value]) == 1
    assert capsys.readouterr().err == f"error: option {flag} must be {expected}\n"
    assert not (out / "aim").exists()


@pytest.mark.parametrize("fitted", [False, True])
def test_aim_pair_exports_the_named_direction_of_each_video(tmp_path, capsys, fitted) -> None:
    # both videos hold the same walkers, so tracks 0 and 1 are a pair in each;
    # with v0/a0 fitted the store is one batch, else one batch per video
    annotations = write_walker_tree(tmp_path, 7, {"video0": 6, "video1": 6}, copy=True)
    out = tmp_path / "out"
    config = (fitted_config if fitted else write_config)(tmp_path / "config.yaml", annotations, out)
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["aim", "--config", config, "--pair", "0,1"]) == 0
    status = capsys.readouterr().err

    by_video = by_video_of(load_store(out / "store"))
    pairs = {key: extract_interactions(by_video[key], 5) for key in sorted(by_video)}
    cfg = load_run_config(config, str(tmp_path / "expected"))
    rho = cfg.rho
    if fitted:
        fit = fit_normalizers([p for ps in pairs.values() for p in ps[::2]], base=rho)
        rho = dataclasses.replace(rho, v0=fit.v0, a0=fit.a0)
    for key, video_pairs in pairs.items():
        (pair,) = [p for p in video_pairs if p.key == ("0", "1")]
        if fitted:
            video_rho = dataclasses.replace(rho, sigma_d=scene_diagonal(by_video[key]) / 8.0)
        else:
            video_rho = rho
        series = measure_interaction(pair, delta=cfg.delta, rho_config=video_rho, mi_config=cfg.mi)
        cli._export_series(cfg, key, series, swept=False)
    exported = tree_bytes(out / "aim")
    assert len(exported) == 2 * 3  # one .csv, .jsonl and .meta.json per video
    assert exported == tree_bytes(cfg.aim_dir)
    measurable = sum(len(ps) // 2 for ps in pairs.values())
    assert status == (
        f"exported 2 measure series for 2 directed pairs to {out / 'aim'} (30 pairs considered, "
        f"{measurable} measurable, 2 measured, 0 skipped by the bound)\n"
    )


def test_aim_pair_sweep_measures_everything_before_writing(workspace, capsys) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["aim", "--config", config, "--pair", "0,1", "--sweep-n", "5,500"]) == 1
    assert capsys.readouterr().err == (
        "error: pair ('0', '1') has 60 common frames; need at least 501 for an n_window of 500\n"
    )
    assert not (out / "aim").exists()


@pytest.mark.parametrize(
    "rho, argv, message",
    [
        # rho stays finite, and the recurrence of pair 0-1 leaves the float range
        ("alpha: 1.0e+308, sigma_d: 5.0", [], "pair ('0', '1'): aim overflows at delta 0.98, n_window 5"),
        ("alpha: 1.0e+308, sigma_d: 5.0", ["--pair", "0,1"],
         "pair ('0', '1'): aim overflows at delta 0.98, n_window 5"),
        # track 0 heads towards the biker, track 2: rho itself leaves it
        ("alpha: 1.7e+308, sigma_d: 1.0e+12", [], "pair ('0', '2'): rho overflows (alpha 1.7e+308)"),
        ("alpha: 1.7e+308, sigma_d: 1.0e+12", ["--pair", "0,2"], "pair ('0', '2'): rho overflows (alpha 1.7e+308)"),
    ],
    ids=["aim-top-k", "aim-pair", "rho-top-k", "rho-pair"],
)
def test_aim_that_overflows_is_one_error_line_and_no_output(workspace, capsys, rho, argv, message) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    fixed = "rho:\n  v0: 1.0\n  sigma_d: 125.0\n  a0: 0.25"
    config.write_text(config.read_text().replace(fixed, f"rho: {{v0: 1.0, a0: 0.25, {rho}}}"))
    capsys.readouterr()
    # a numpy warning would be an error here (pyproject's filterwarnings)
    assert run(["aim", "--config", config, *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "aim").exists()


@pytest.mark.parametrize("argv", [[], ["--pair", "0,1"]], ids=["top-k", "pair"])
def test_a_bandwidth_whose_cells_overflow_is_one_error_line_and_no_output(workspace, capsys, argv) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    config.write_text(config.read_text().replace("  n_min: 6", "  n_min: 6\n  bandwidths: [1.0e-320]"))
    capsys.readouterr()
    # a numpy warning would be an error here (pyproject's filterwarnings)
    assert run(["aim", "--config", config, *argv]) == 1
    assert capsys.readouterr().err == "error: x coordinates overflow when divided by bandwidth 1e-320\n"
    assert not (out / "aim").exists()


@pytest.mark.parametrize("k", ["0", "3"])
def test_aim_pair_and_top_k_are_exclusive(workspace, capsys, k) -> None:
    _, _, out, config = workspace
    with pytest.raises(SystemExit) as exit_info:
        run(["aim", "--config", config, "--pair", "0,1", "--top-k", k])
    assert exit_info.value.code == 2
    assert "argument --top-k: not allowed with argument --pair" in capsys.readouterr().err


def test_aim_sweep_computes_the_dependence_once_per_pair(workspace, monkeypatch) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    mi_calls = counting(monkeypatch, aim, "mi_prefix_series")
    assert run(["aim", "--config", config, "--pair", "0,1", "--sweep-n", "5,8"]) == 0
    assert len(mi_calls) == 1  # the pair is measurable in one video
    swept = {path.name: path.read_bytes() for path in (out / "aim").glob("*__n8.*")}
    assert len(swept) == 3
    for name in swept:
        (out / "aim" / name).unlink()
    # a sweep of n_window 8 alone writes the same files with the same bytes
    assert run(["aim", "--config", config, "--pair", "0,1", "--sweep-n", "8"]) == 0
    assert {name: (out / "aim" / name).read_bytes() for name in swept} == swept


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["eval", "--lost-policy", "keep_lost,bogus"],
            "unknown lost policy 'bogus' (options: filter_keep_first, filter_keep_all, keep_lost)",
        ),
        (
            ["eval", "--predictor", "missing.jsonl"],
            "--predictor must be 'constant_velocity' or an existing predictions file, got 'missing.jsonl'",
        ),
        (["aim", "--top-k", "0"], "--top-k must be >= 1, got 0"),
        (["aim", "--sweep-n", "5,5"], "option --sweep-n must be a list of distinct values, got '5' and '5'"),
        (["aim", "--sweep-n", "0"], "n_window must be >= 1, got 0"),
        (["aim", "--sweep-delta", "0.5,1.5"], "delta must be in (0, 1], got 1.5"),
        (["aim", "--pair", "0"], "--pair expects 'TRACK_I,TRACK_J', got '0'"),
        # an empty option is given, not unset
        (["aim", "--pair", ""], "--pair expects 'TRACK_I,TRACK_J', got ''"),
        (["eval", "--lost-policy", ""], "--lost-policy is empty"),
        (["ingest", "--out", ""], "option --out must be a non-empty string, got ''"),
    ],
    ids=[
        "lost-policy", "predictor", "top-k", "sweep-n-twice", "sweep-n-zero", "sweep-delta", "pair",
        "pair-empty", "lost-policy-empty", "out-empty",
    ],
)
def test_options_are_checked_before_the_store_loads(workspace, capsys, monkeypatch, argv, message) -> None:
    tmp_path, _, out, config = workspace  # never ingested: no store, and no registry read
    monkeypatch.chdir(tmp_path)
    assert run([argv[0], "--config", config, *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "mi, message",
    [
        ("  n_min: 6\n  bandwidths: [-8]", "bandwidths must be positive, got [-8.0]"),
        (
            "  n_min: 6\n  bandwidths: [8, 16]\n  weights: [0.9, 0.2]",
            "weights must be nonnegative and sum to 1, got [0.9, 0.2]",
        ),
        ("  n_min: 6\n  weights: [1.0]", "need one weight per bandwidth"),
        ("  n_min: 0", "n_min must be >= 1, got 0"),
    ],
    ids=["bandwidths", "weights-sum", "weights-count", "n-min"],
)
@pytest.mark.parametrize("command", ["ingest", "stats", "eval", "aim"])
def test_every_command_checks_the_mi_settings_before_reading_any_file(
    workspace, capsys, command, mi, message
) -> None:
    _, _, out, config = workspace  # never ingested: no store
    config.write_text(config.read_text().replace("  n_min: 6", mi))
    assert run([command, "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()



@pytest.mark.parametrize(
    "keys, message",
    [
        ("1: 2\nfoo: 3\n", "unknown top-level config keys: ['1', 'foo']"),
        ("rho: {1: 2, foo: 3}\n", "unknown keys in config section 'rho': ['1', 'foo']"),
        ("~: 2\nfoo: 3\n", "unknown top-level config keys: ['None', 'foo']"),
    ],
    ids=["top-level", "section", "null"],
)
@pytest.mark.parametrize("command", ["ingest", "stats", "eval", "aim"])
def test_config_keys_that_are_not_text_are_one_error_line(workspace, capsys, command, keys, message) -> None:
    _, annotations, out, config = workspace
    config.write_text(f"dataset: sdd\ninputs: [{annotations}]\nout: {out}\n{keys}")
    assert run([command, "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# --- eval ---------------------------------------------------------------------------


def test_eval_constant_velocity_two_policies(workspace) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    assert (
        run(
            [
                "eval", "--config", config,
                "--lost-policy", "keep_lost,filter_keep_first",
            ]
        )
        == 0
    )
    rows = [
        json.loads(line)
        for line in (out / "reports" / "eval.jsonl").read_text().splitlines()
    ]
    all_rows = {r["config"]: r for r in rows if r["group"] == "all"}
    assert all_rows["keep_lost"]["n_windows"] == 9
    assert all_rows["filter_keep_first"]["n_windows"] == 7
    groups = {r["group"] for r in rows}
    assert {"all", "Pedestrian", "Biker"} <= groups

    csv_lines = (out / "reports" / "eval.csv").read_text().splitlines()
    assert csv_lines[0] == "dataset,config,group,n_windows,ade,fde"
    assert all(len(line.split(",")) == 6 for line in csv_lines[1:])


def test_eval_reports_a_registry_without_the_dataset_before_reading_the_store(tmp_path, capsys) -> None:
    registry = tmp_path / "registry.yaml"
    registry.write_text("version: 1\ndatasets:\n  sdd:\n    frame_rate: 30\n    scenes: {}\n")
    data = write_ind_recording(tmp_path / "data").parent
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: ind\ninputs: [{data}]\nout: {tmp_path / 'out'}\nregistry: {registry}\n")
    assert run(["eval", "--config", config]) == 1  # nothing ingested
    assert capsys.readouterr().err == "error: unknown dataset 'ind'\n"


def test_eval_lost_policy_given_twice_is_one_error_line(workspace, capsys) -> None:
    _, _, out, config = workspace
    assert run(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert run(["eval", "--config", config, "--lost-policy", "keep_lost,KEEP_LOST"]) == 1
    assert capsys.readouterr().err == (
        "error: option --lost-policy must be a list of distinct values, got 'keep_lost' and 'KEEP_LOST'\n"
    )
    assert not (out / "reports").exists()


def write_perfect_predictions(out: Path, preds: Path) -> None:
    """A predictions file that scores 0 on the filter_keep_first windows of the store."""
    cfg = PreprocessConfig(lost_policy=LostPolicy.FILTER_KEEP_FIRST, target_rate=30.0)
    windows = [
        w
        for t in load_store(out / "store")
        for w in preprocess_trajectory(t, cfg, 30.0)
    ]
    with open(preds, "w") as fh:
        for w in windows:
            fh.write(
                json.dumps(
                    {"window_id": w.window_id, "points": [list(map(float, p)) for p in w.future]}
                )
                + "\n"
            )


def test_eval_external_predictions(workspace, tmp_path) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    preds = tmp_path / "preds.jsonl"
    write_perfect_predictions(out, preds)
    assert (
        run(
            [
                "eval", "--config", config,
                "--predictor", preds,
                "--lost-policy", "filter_keep_first",
            ]
        )
        == 0
    )
    rows = [
        json.loads(line)
        for line in (out / "reports" / "eval.jsonl").read_text().splitlines()
    ]
    assert all(r["ade"] == 0.0 and r["fde"] == 0.0 for r in rows)


def test_eval_external_predictions_unknown_window(workspace, tmp_path, capsys) -> None:
    _, _, _, config = workspace
    run(["ingest", "--config", config])
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        json.dumps({"window_id": "sdd:quad:video0:0@0", "points": [[0.0, 0.0]] * 12}) + "\n"
    )
    assert run(["eval", "--config", config, "--predictor", preds]) != 0
    assert "window" in capsys.readouterr().err


def test_eval_non_finite_prediction_is_one_error_line(workspace, tmp_path, capsys) -> None:
    _, _, out, config = workspace
    run(["ingest", "--config", config])
    preds = tmp_path / "preds.jsonl"
    write_perfect_predictions(out, preds)
    first, *rest = preds.read_text().splitlines(keepends=True)
    record = json.loads(first)
    record["points"][3][1] = float("nan")
    preds.write_text(json.dumps(record) + "\n" + "".join(rest))
    capsys.readouterr()
    assert run(["eval", "--config", config, "--predictor", preds, "--lost-policy", "filter_keep_first"]) == 1
    assert capsys.readouterr().err == f"error: {preds}:1: points must be finite numbers\n"
    assert not list((out / "reports").glob("eval.*"))


@pytest.mark.parametrize(
    "points, message",
    [
        ([[[0.0, 0.0, 0.0]]], "1: points must be a list of [x, y] pairs"),
        ([[0.0, 0.0]], "1: points must be a list of [x, y] pairs"),
        ([[[0.0, 0.0]], [[1.0, 1.0]]], "2: duplicate window id sdd:quad:video0:0@0"),
    ],
    ids=["three columns", "a flat pair", "a repeated window"],
)
def test_a_predictions_file_the_reader_refuses_is_one_error_line(workspace, tmp_path, capsys, points, message) -> None:
    _, _, out, config = workspace
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"window_id": "sdd:quad:video0:0@0", "points": p}) + "\n" for p in points))
    assert run(["eval", "--config", config, "--predictor", preds]) == 1
    assert capsys.readouterr().err == f"error: {preds}:{message}\n"
    assert not out.exists()


# --- determinism ------------------------------------------------------------------------


def test_outputs_byte_identical_across_runs(tmp_path) -> None:
    annotations = write_sdd_tree(tmp_path)
    outputs = {}
    for label in ("first", "second"):
        out = tmp_path / label
        config = write_config(tmp_path / f"{label}.yaml", annotations, out)
        assert run(["ingest", "--config", config]) == 0
        assert run(["stats", "--config", config]) == 0
        assert run(["aim", "--config", config, "--top-k", "2"]) == 0
        assert run(["eval", "--config", config, "--lost-policy", "keep_lost"]) == 0
        tree = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(out))] = path.read_bytes()
        outputs[label] = tree
    assert sorted(outputs["first"]) == sorted(outputs["second"])
    for name in outputs["first"]:
        assert outputs["first"][name] == outputs["second"][name], name


def test_usage_error_unknown_command(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_ingest_non_utf8_input_is_one_error_line(tmp_path, capsys) -> None:
    annotations = write_sdd_tree(tmp_path)
    bad = annotations / "quad" / "video1" / "annotations.txt"
    lines = bad.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"Pedestrian"', b'"Pedestri\xffn"')
    bad.write_bytes(b"\n".join(lines))
    config = write_config(tmp_path / "config.yaml", annotations, tmp_path / "out")
    assert run(["ingest", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:3: not valid UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config file does not exist: {config}"),
        ("- dataset: sdd\n", "config file {config} must contain a mapping"),
    ],
    ids=["missing", "a list"],
)
def test_a_config_file_that_is_missing_or_not_a_mapping_is_one_error_line(tmp_path, capsys, text, message) -> None:
    config = tmp_path / "config.yaml"
    if text is not None:
        config.write_text(text)
    assert run(["stats", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"


def test_non_utf8_config_is_one_error_line(workspace, capsys) -> None:
    _, _, _, config = workspace
    lines = config.read_bytes().split(b"\n")
    lines[3] = lines[3] + b"  # caf\xe9"
    config.write_bytes(b"\n".join(lines))
    assert run(["stats", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {config}:4: not valid UTF-8 (byte 0xe9)\n"
