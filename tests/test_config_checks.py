"""PreprocessConfig, RhoConfig, MIConfig and RunConfig check their fields once, when built."""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import straight_line
from trajscope.aim import Kinematics, RhoConfig, compute_rho
from trajscope.cli import RunConfig, load_run_config
from trajscope.preprocess import LostPolicy, PreprocessConfig, preprocess_trajectory
from trajscope.types import ConfigError, MIConfig, ToolError


@pytest.mark.parametrize(
    "config, field, value",
    [
        (PreprocessConfig, "observe_len", 8.0),
        (PreprocessConfig, "stride", 2.5),
        (PreprocessConfig, "target_rate", math.nan),
        (PreprocessConfig, "drop_generated", "no"),
        (RhoConfig, "use_v", "false"),
        (RhoConfig, "alpha", "0.3"),
    ],
)
def test_a_field_of_the_wrong_type_is_a_config_error_naming_it(config, field, value) -> None:
    with pytest.raises(ConfigError) as err:
        config(**{field: value})
    assert str(err.value).startswith(f"{field} must be ")
    assert repr(value) in str(err.value)


def test_replace_checks_again() -> None:
    fitted = dataclasses.replace(RhoConfig(), v0=2.0)
    assert fitted.v0 == 2.0
    with pytest.raises(ConfigError, match="^sigma_d must be > 0, got 0.0$"):
        dataclasses.replace(fitted, sigma_d=0.0)
    with pytest.raises(ConfigError, match="^observe_len must be >= 2, got 1$"):
        dataclasses.replace(PreprocessConfig(), observe_len=1)


def write_run_config(tmp_path: Path, extra: str = "") -> Path:
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\n{extra}")
    return config


# id, field, a bad value, and the config text that sets it; every rule of
# the mi: section that a config of numbers can break is here
BAD_RUN_SETTINGS = [
    ("dataset", "dataset", "sdd2", ""),
    ("export_format", "export_format", "xml", "export_format: xml\n"),
    ("delta", "delta", 1.5, "aim: {delta: 1.5}\n"),
    ("n_window", "n_window", 0, "aim: {n_window: 0}\n"),
    ("bandwidths", "bandwidths", (0.0, 8.0), "mi: {bandwidths: [0, 8]}\n"),
    ("no-bandwidths", "bandwidths", (), "mi: {bandwidths: []}\n"),
    ("weights", "weights", (0.5, 0.6, 0.0, 0.0), "mi: {weights: [0.5, 0.6, 0, 0]}\n"),
    ("weights-count", "weights", (1.0,), "mi: {weights: [1]}\n"),
    ("n_min", "n_min", 0, "mi: {n_min: 0}\n"),
]
MI_FIELDS = {f.name for f in dataclasses.fields(MIConfig)}


@pytest.mark.parametrize(
    "field, value, text", [case[1:] for case in BAD_RUN_SETTINGS], ids=[case[0] for case in BAD_RUN_SETTINGS]
)
def test_replace_checks_a_run_config_as_loading_does(tmp_path, field, value, text) -> None:
    ok = load_run_config(write_run_config(tmp_path))
    builds = [lambda: dataclasses.replace(ok, **{field: value})]
    if field in MI_FIELDS:  # a field of the run config's MIConfig, which is also built alone
        builds = [lambda: MIConfig(**{field: value}), lambda: dataclasses.replace(ok.mi, **{field: value})]
    errors = []
    for build in builds:
        with pytest.raises(ConfigError) as err:
            build()
        errors.append(str(err.value))
    config = write_run_config(tmp_path, text)
    if field == "dataset":
        config.write_text(config.read_text().replace("dataset: sdd", f"dataset: {value}"))
    with pytest.raises(ConfigError) as loaded:
        load_run_config(config)
    assert errors == [str(loaded.value)] * len(errors)
    assert "\n" not in str(loaded.value)


def test_a_run_config_is_frozen_and_keeps_unset_settings_unset(tmp_path) -> None:
    cfg = load_run_config(write_run_config(tmp_path))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.delta = 0.5  # type: ignore[misc]
    # no weights means equal weights, recorded as null; no window means the dataset's
    assert (cfg.mi.weights, cfg.n_window) == (None, None)
    built = RunConfig(
        "ind", [tmp_path], tmp_path, None, PreprocessConfig(), RhoConfig(), True, True, True, "csv",
        delta=1, n_window=3, mi=MIConfig(bandwidths=[4, 2], weights=[0.5, 0.5], n_min=2),
    )
    # the checked values are the ones stored
    assert (built.delta, built.mi.bandwidths, built.mi.weights) == (1.0, (4.0, 2.0), (0.5, 0.5))
    assert type(built.delta) is float


@pytest.mark.parametrize(
    "text, message",
    [
        ('rho: {v0: "2"}', "config key rho.v0 must be a finite number, got '2'"),
        ('preprocess: {observe_len: "8"}', "config key preprocess.observe_len must be an integer, got '8'"),
        ('aim: {delta: "0.5"}', "config key aim.delta must be a finite number, got '0.5'"),
        ('mi: {bandwidths: ["4", 8]}', "config key mi.bandwidths must be a finite number, got '4'"),
    ],
)
def test_a_quoted_number_in_the_config_is_an_error_naming_its_key(tmp_path, text, message) -> None:
    with pytest.raises(ConfigError) as err:
        load_run_config(write_run_config(tmp_path, text + "\n"))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "key, text",
    [("inputs", 'inputs: [""]'), ("out", 'out: ""'), ("registry", 'registry: ""')],
)
def test_an_empty_path_is_an_error_naming_its_key(tmp_path, key, text) -> None:
    config = write_run_config(tmp_path)
    lines = [line for line in config.read_text().splitlines() if not line.startswith(f"{key}:")]
    config.write_text("\n".join([*lines, text]) + "\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(config)
    assert str(err.value) == f"config key {key} must be a non-empty string, got ''"


def test_a_null_export_format_takes_the_default(tmp_path) -> None:
    assert load_run_config(write_run_config(tmp_path, "export_format: null\n")).export_format == "both"


def test_the_lost_policy_is_stored_parsed() -> None:
    assert PreprocessConfig(lost_policy=" Keep_Lost").lost_policy is LostPolicy.KEEP_LOST
    with pytest.raises(ConfigError, match="unknown lost policy"):
        PreprocessConfig(lost_policy=None)


VALUES = st.one_of(
    st.integers(),
    st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.text(max_size=20),
    st.sampled_from([policy.value for policy in LostPolicy]),
    st.none(),
)


def some_fields(config) -> st.SearchStrategy[dict]:
    """Any subset of the config's fields, each set to any value."""
    return st.fixed_dictionaries({}, optional={f.name: VALUES for f in dataclasses.fields(config)})


@settings(max_examples=300, deadline=None)
@given(some_fields(PreprocessConfig), some_fields(RhoConfig))
# the smallest subnormal: native_rate / target_rate and d / sigma_d overflow to inf
@example(dict(target_rate=5e-324), dict(sigma_d=5e-324))
def test_a_config_is_refused_when_built_or_its_use_raises_only_tool_errors(preprocess, rho) -> None:
    uses = [
        (PreprocessConfig, preprocess, lambda cfg: preprocess_trajectory(straight_line(60), cfg, 30.0)),
        (RhoConfig, rho, lambda cfg: compute_rho(Kinematics(1.0, 2.0, 0.5, 0.1), cfg)),
    ]
    for config, fields, use in uses:
        try:
            cfg = config(**fields)
        except ConfigError:
            continue
        try:
            use(cfg)
        except ToolError:
            pass
