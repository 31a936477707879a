"""The benchmark tracer (perfbench/layers.py) patches trajscope's functions by
name from outside the package. This checks that every name it patches still
resolves, that it installs and restores cleanly, and that a traced command
still runs, so a refactor that renames or reshapes a traced name fails here.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from conftest import straight_line
from test_cli import write_config, write_ind_recording, write_sdd_tree
from trajscope import aim
from trajscope.cli import main
from trajscope.store import load_store

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets(layers) -> dict:
    """(owner, attribute) -> the object currently bound there, for every traced name."""
    targets = {}
    for module_name, attr, _ in layers.SPANS + layers.HOT_FUNCTIONS:
        module = importlib.import_module(module_name)
        targets[(module, attr)] = getattr(module, attr)
    for module_name, cls_name, attr, _ in layers.HOT_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        targets[(cls, attr)] = vars(cls)[attr]
    return targets


def test_every_traced_name_resolves_and_the_tracer_restores_it(tmp_path) -> None:
    layers = load_layers()
    before = traced_targets(layers)
    assert all(callable(target) for target in before.values())

    config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), tmp_path / "out")
    tracer = layers.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in traced_targets(layers).items():
            assert original.__wrapped__ is before[(owner, attr)], attr
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["aim", "--config", str(config), "--top-k", "1"]) == 0
    finally:
        tracer.restore()
    assert traced_targets(layers) == before
    assert tracer.groups["store.load"].calls == 1
    assert tracer.groups["aim.extract"].calls >= 1
    assert tracer.groups["types.array_conversion"].calls > 0



def test_a_traced_ingest_parses_and_assembles_each_video_once(tmp_path) -> None:
    layers = load_layers()
    sdd_config = write_config(tmp_path / "sdd.yaml", write_sdd_tree(tmp_path / "sdd"), tmp_path / "sdd-out")
    write_ind_recording(tmp_path / "ind")
    ind_config = tmp_path / "ind.yaml"
    ind_config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'ind'}]\nout: {tmp_path / 'ind-out'}\n")
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert main(["ingest", "--config", str(sdd_config)]) == 0
        assert main(["ingest", "--config", str(ind_config)]) == 0
    finally:
        tracer.restore()
    calls = {group: tracer.groups[group].calls for group in ("sdd.parse", "sdd.assemble", "ind.parse")}
    assert calls == {"sdd.parse": 2, "sdd.assemble": 2, "ind.parse": 1}


def traced_calls(layers, argv: list[str], groups: tuple[str, ...]) -> dict[str, int]:
    """The number of calls of each span group in one traced run of `argv`."""
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.restore()
    return {group: tracer.groups[group].calls for group in groups}


STATS_SPANS = (
    "store.load", "registry.load", "analytics.group", "analytics.lost_stats",
    "analytics.class_distribution", "analytics.overlap_report",
)


def test_a_traced_stats_runs_each_report_once(tmp_path) -> None:
    layers = load_layers()
    sdd_config = write_config(tmp_path / "sdd.yaml", write_sdd_tree(tmp_path / "sdd"), tmp_path / "sdd-out")
    write_ind_recording(tmp_path / "ind")
    ind_config = tmp_path / "ind.yaml"
    ind_config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'ind'}]\nout: {tmp_path / 'ind-out'}\n")
    for config in (sdd_config, ind_config):
        assert main(["ingest", "--config", str(config)]) == 0
    assert traced_calls(layers, ["stats", "--config", str(sdd_config)], STATS_SPANS) == dict.fromkeys(STATS_SPANS, 1)
    # inD gets no overlap report
    calls = traced_calls(layers, ["stats", "--config", str(ind_config)], STATS_SPANS)
    assert calls == {**dict.fromkeys(STATS_SPANS, 1), "analytics.overlap_report": 0}


def test_a_traced_eval_loads_the_store_once_and_windows_each_trajectory_per_policy(tmp_path) -> None:
    layers = load_layers()
    config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), tmp_path / "out")
    assert main(["ingest", "--config", str(config)]) == 0
    n_trajectories = len(load_store(tmp_path / "out" / "store"))
    argv = ["eval", "--config", str(config), "--lost-policy", "keep_lost,filter_keep_first"]
    calls = traced_calls(layers, argv, ("store.load", "evaluation.evaluate", "preprocess.trajectory"))
    assert calls == {"store.load": 1, "evaluation.evaluate": 2, "preprocess.trajectory": 2 * n_trajectories}


def test_hot_functions_call_no_other_traced_function() -> None:
    """A hot counter charges its time to the enclosing span without a stack
    frame, so a traced call inside one would be counted twice. The one-frame
    kinematics and rho call into the array path; none of it may be traced."""
    layers = load_layers()
    ti = straight_line(12, track_id=1)
    tj = straight_line(12, step=(0.5, 1.0), origin=(3.0, 4.0), track_id=2)
    pair, _ = aim.extract_interactions([ti, tj], n_window=4)
    tracer = layers.Tracer()
    tracer.install()
    try:
        kin = aim.compute_kinematics(pair, int(pair.frames[-1]))
        aim.compute_rho(kin)
    finally:
        tracer.restore()
    called = {group: stats.calls for group, stats in tracer.groups.items() if stats.calls}
    assert called == {"aim.kinematics": 1, "aim.rho": 1}
