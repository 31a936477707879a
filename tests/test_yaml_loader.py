"""Config and registry files are read by libyaml's safe loader when PyYAML
has it, and by the pure-Python one otherwise. Both loaders must give the
same documents and name the same file:line for a file that is not YAML;
every test here runs once with each.
"""
from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from test_cli import write_config, write_sdd_tree
from trajscope.cli import load_run_config
from trajscope.registry import default_registry_path, load_registry
from trajscope.types import ConfigError, load_yaml

PURE = yaml.SafeLoader
LIBYAML = getattr(yaml, "CSafeLoader", None)

NOT_YAML = {
    "unclosed-sequence": "dataset: [sdd\nfoo: 1\n",
    "nested-mapping-value": "a: b: c\n",
    "bad-indent": "a: 1\n  b: 2\n",
    "unclosed-quote": "a: 'x\n",
    "sequence-then-mapping": "- a\nb: 1\n",
    "unclosed-mapping": "a: {x: 1\n",
    "tab": "\tfoo: 1\n",
    "undefined-alias": "a: *x\n",
    "unsafe-tag": "a: !!python/object:os.system 1\n",
}


@pytest.fixture(params=["libyaml", "pure"])
def loaders_used(request, monkeypatch) -> list:
    """The Loader of each yaml.load call; in the "pure" run, PyYAML looks
    as if it were built without libyaml."""
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif LIBYAML is None:
        pytest.skip("PyYAML is built without libyaml")
    used: list = []
    real = yaml.load

    def load(stream, Loader):
        used.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", load)
    yield used
    assert used and set(used) == {PURE if request.param == "pure" else LIBYAML}


def pure_document(path: Path):
    return PURE(path.read_text(encoding="utf-8")).get_single_data()


def pure_error_line(text: str) -> int:
    with pytest.raises(yaml.YAMLError) as err:
        PURE(text).get_single_data()
    return err.value.problem_mark.line + 1


def test_the_default_registry_reads_as_the_pure_loader_reads_it(loaders_used) -> None:
    path = default_registry_path()
    assert load_yaml(path) == pure_document(path)
    assert load_registry().frame_rates == {"sdd": 30.0, "ind": 25.0}


def test_a_config_reads_as_the_pure_loader_reads_it(tmp_path, loaders_used) -> None:
    config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), tmp_path / "out")
    assert load_yaml(config) == pure_document(config)
    assert load_run_config(config).rho.sigma_d == 125.0


@pytest.mark.parametrize("text", list(NOT_YAML.values()), ids=list(NOT_YAML))
def test_a_config_that_is_not_yaml_names_the_pure_loaders_line(tmp_path, loaders_used, text) -> None:
    config = tmp_path / "config.yaml"
    config.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_run_config(config)
    assert str(err.value).startswith(f"{config}:{pure_error_line(text)}: not valid YAML (")


@pytest.mark.parametrize("text", list(NOT_YAML.values()), ids=list(NOT_YAML))
def test_a_registry_that_is_not_yaml_names_the_pure_loaders_line(tmp_path, loaders_used, text) -> None:
    registry = tmp_path / "registry.yaml"
    registry.write_text(default_registry_path().read_text() + text)
    line = pure_error_line(registry.read_text())
    with pytest.raises(ConfigError) as err:
        load_registry(registry)
    assert str(err.value).startswith(f"registry: {registry}:{line}: not valid YAML (")
