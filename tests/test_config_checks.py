"""PreprocessConfig and RhoConfig check their fields once, when built."""
from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import straight_line
from trajscope.aim import Kinematics, RhoConfig, compute_rho
from trajscope.preprocess import LostPolicy, PreprocessConfig, preprocess_trajectory
from trajscope.types import ConfigError, ToolError


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
