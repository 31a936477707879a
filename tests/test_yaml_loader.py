"""Config and registry files are read by libyaml's safe loader when PyYAML
has it, and by the pure-Python one otherwise, each refusing a mapping that
repeats a key. Both loaders must give the same documents and name the same
file:line for a file that is not YAML; every test here runs once with each.
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
    """The Loader of each yaml.load call, a subclass of the safe loader in
    use; in the "pure" run, PyYAML looks as if it were built without libyaml."""
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
    assert used and all(issubclass(loader, PURE if request.param == "pure" else LIBYAML) for loader in used)


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


# text after a config's three required keys, the line of the repeated key
# in that text, and the key
DUPLICATES = {
    "top-level": ("mi: {n_min: 6}\nexport_format: csv\nmi: {n_min: 7}\n", 3, "mi"),
    "nested": ("mi:\n  n_min: 6\n  weights: null\n  n_min: 7\n", 4, "n_min"),
    "flow": ("aim: {delta: 0.9, delta: 0.5}\n", 1, "delta"),
    "equal-values": ("export_format: csv\nregistry: null\nexport_format: csv\n", 3, "export_format"),
}


@pytest.mark.parametrize("text, line, key", list(DUPLICATES.values()), ids=list(DUPLICATES))
def test_a_config_that_repeats_a_key_names_the_repeat(tmp_path, loaders_used, text, line, key) -> None:
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path}]\nout: {tmp_path / 'out'}\n" + text)
    with pytest.raises(ConfigError) as err:
        load_run_config(config)
    assert str(err.value) == f"{config}:{line + 3}: not valid YAML (found duplicate key {key!r})"


@pytest.mark.parametrize("where", ["top-level", "nested"])
def test_a_registry_that_repeats_a_key_names_the_repeat(tmp_path, loaders_used, where) -> None:
    text = default_registry_path().read_text()
    lines = text.splitlines()
    if where == "top-level":
        lines.append("version: 1")
        line, key = len(lines), "version"
    else:  # a second frame_rate for sdd, right after the first
        at = next(i for i, text in enumerate(lines) if text.strip().startswith("frame_rate"))
        lines.insert(at + 1, lines[at])
        line, key = at + 2, "frame_rate"
    registry = tmp_path / "registry.yaml"
    registry.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        load_registry(registry)
    assert str(err.value) == f"registry: {registry}:{line}: not valid YAML (found duplicate key {key!r})"


def test_a_key_beside_a_merge_overrides_it(tmp_path, loaders_used) -> None:
    path = tmp_path / "merge.yaml"
    path.write_text("base: &b {x: 1, y: 2}\nmerged: {<<: *b, x: 3}\nlists: {<<: [*b, {x: 4}], z: 5}\n")
    assert load_yaml(path) == pure_document(path)
    assert load_yaml(path)["merged"] == {"x": 3, "y": 2}


def test_a_decimal_number_with_an_exponent_is_a_float(tmp_path, loaders_used) -> None:
    path = tmp_path / "numbers.yaml"
    text = "a: 1e-3\nb: 1E5\nc: 1.25e2\nd: 1.25e+2\ne: -.5e1\nf: 10\ng: '1e-3'\nh: e5\n"
    path.write_text(text)
    document = load_yaml(path)
    assert document == {"a": 0.001, "b": 100000.0, "c": 125.0, "d": 125.0, "e": -5.0, "f": 10, "g": "1e-3", "h": "e5"}
    assert [type(value) for value in document.values()] == [float] * 5 + [int, str, str]
    # YAML 1.1, as the safe loaders themselves still read it
    assert pure_document(path)["a"] == "1e-3"
    if LIBYAML is not None:
        assert LIBYAML(text).get_single_data()["a"] == "1e-3"


def test_a_config_number_with_an_exponent_is_a_number(tmp_path, loaders_used) -> None:
    config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), tmp_path / "out")
    text = config.read_text().replace("delta: 0.98", "delta: 1e-3")
    config.write_text(text.replace("sigma_d: 125.0", "sigma_d: 1.25e2"))
    cfg = load_run_config(config)
    assert (cfg.delta, cfg.rho.sigma_d) == (0.001, 125.0)
    config.write_text(config.read_text().replace("delta: 1e-3", "delta: '1e-3'"))
    with pytest.raises(ConfigError) as err:
        load_run_config(config)
    assert str(err.value) == "config key aim.delta must be a finite number, got '1e-3'"


def test_a_registry_number_with_an_exponent_is_a_number(tmp_path, loaders_used) -> None:
    registry = tmp_path / "registry.yaml"
    registry.write_text(default_registry_path().read_text().replace("frame_rate: 30.0", "frame_rate: 3e1", 1))
    assert load_registry(registry).frame_rates["sdd"] == 30.0
