"""What importing trajscope loads.

The package imports only the standard library, numpy and yaml: test-only
tools (hypothesis, pytest and its plugins) and anything else a user would
have to install must not be needed to import `trajscope`. Importing the CLI
loads only what config loading needs, and each command adds only the
modules it runs, checked in a fresh interpreter.
"""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajscope
import trajscope.types
from test_cli import write_config, write_ind_recording, write_sdd_tree
from trajscope.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "trajscope"
ALLOWED = {"numpy", "yaml", "trajscope"}


def imported_modules(path: Path) -> list[str]:
    """The top-level package of every import in a file; relative imports are trajscope."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("trajscope" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_the_standard_library_numpy_and_yaml(path) -> None:
    outside = [
        name for name in imported_modules(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED
    ]
    assert outside == [], f"{path.name} imports {outside}"


def test_the_import_guard_sees_third_party_imports(tmp_path) -> None:
    module = tmp_path / "m.py"
    module.write_text("import os\nimport hypothesis.strategies\nfrom pytest_benchmark import x\nfrom . import y\n")
    assert imported_modules(module) == ["os", "hypothesis", "pytest_benchmark", "trajscope"]


# Imported by `import trajscope.cli`: config loading needs these.
CONFIG_MODULES = {"cli", "preprocess", "types"}
# What each command adds to them.
COMMAND_MODULES = {
    "ingest-sdd": {"sdd", "store"},
    "ingest-ind": {"ind", "store"},
    "stats": {"analytics", "registry", "store"},
    "aim": {"aim", "mi", "store"},
    "eval": {"evaluation", "registry", "store"},
}
PROBE = (
    "import sys\n"
    "{run}\n"
    "print(' '.join(sorted(m[len('trajscope.'):] for m in sys.modules if m.startswith('trajscope.'))))\n"
)


def fresh(code: str, cwd: Path, **env: str | None) -> str:
    """What a fresh interpreter running `code` prints, with `env` set (None: unset)."""
    environ = dict(os.environ, PYTHONPATH=str(SRC.parent), **env)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={name: value for name, value in environ.items() if value is not None},
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_modules(run: str, cwd: Path) -> set[str]:
    """The trajscope submodules a fresh interpreter holds after `run`."""
    return set(fresh(PROBE.format(run=run), cwd).split())


def test_importing_the_cli_loads_only_what_config_loading_needs(tmp_path) -> None:
    assert loaded_modules("import trajscope.cli", tmp_path) == CONFIG_MODULES
    assert loaded_modules("import trajscope", tmp_path) == set()


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(tmp_path, command) -> None:
    if command == "ingest-ind":
        write_ind_recording(tmp_path / "ind")
        config = tmp_path / "config.yaml"
        config.write_text(f"dataset: ind\ninputs: [{tmp_path / 'ind'}]\nout: {tmp_path / 'out'}\n")
    else:
        config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), tmp_path / "out")
        if command != "ingest-sdd":
            assert main(["ingest", "--config", str(config)]) == 0
    argv = [command.split("-")[0], "--config", str(config)]
    run = f"from trajscope.cli import main; assert main({argv!r}) == 0"
    assert loaded_modules(run, tmp_path) == CONFIG_MODULES | COMMAND_MODULES[command]


def test_the_cli_pins_openblas_to_one_thread_unless_the_user_set_it(tmp_path) -> None:
    probe = "import os, trajscope.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh(probe, tmp_path, OPENBLAS_NUM_THREADS=None).strip() == "1"
    assert fresh(probe, tmp_path, OPENBLAS_NUM_THREADS="3").strip() == "3"


def test_a_fitted_aim_run_leaves_numpy_ma_unloaded(tmp_path) -> None:
    config = write_config(tmp_path / "config.yaml", write_sdd_tree(tmp_path), tmp_path / "out")
    # v0 and a0 unset: aim fits them from the store
    config.write_text(config.read_text().replace("  v0: 1.0\n", "").replace("  a0: 0.25\n", ""))
    assert main(["ingest", "--config", str(config)]) == 0
    run = f"import sys; from trajscope.cli import main; assert main(['aim', '--config', {str(config)!r}]) == 0"
    assert fresh(run + "; print('numpy.ma' in sys.modules)", tmp_path).strip() == "False"
    metas = [json.loads(path.read_text()) for path in (tmp_path / "out" / "aim").glob("*.meta.json")]
    assert metas and all(meta["v0"] != 1.0 for meta in metas)  # fitted


def test_every_public_name_resolves_and_is_listed() -> None:
    assert trajscope.__all__ == sorted(trajscope.__all__)
    listed = dir(trajscope)
    for name in trajscope.__all__:
        assert getattr(trajscope, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        trajscope.no_such_name  # noqa: B018


# Setting rules and defaults defined in `types`, by the other modules that
# name them: each must hold the one object, not a copy, and `aim` and `mi`
# keep offering them under their older import paths.
MOVED = {
    "aim": ("DEFAULT_BANDWIDTHS", "DEFAULT_DELTA", "DEFAULT_N_MIN", "RhoConfig"),
    "mi": ("DEFAULT_BANDWIDTHS", "DEFAULT_N_MIN"),
    "cli": ("DEFAULT_BANDWIDTHS", "DEFAULT_DELTA", "DEFAULT_N_MIN", "RhoConfig"),
}


@pytest.mark.parametrize("module", sorted(MOVED))
def test_each_setting_rule_has_one_definition(module) -> None:
    owner = importlib.import_module(f"trajscope.{module}")
    for name in MOVED[module]:
        assert getattr(owner, name) is getattr(trajscope.types, name), name
        assert getattr(trajscope, name) is getattr(trajscope.types, name), name


def test_the_aim_request_rules_live_in_select_not_the_cli() -> None:
    # the windows an `aim` run measures and their n_min check are `aim.select`'s decision
    source = (SRC / "cli.py").read_text()
    for name in ("DEFAULT_N_WINDOW", "check_first_eval_point"):
        assert name not in source, name



def test_the_input_layouts_live_in_the_dataset_modules_not_the_cli() -> None:
    # which files make a video is `sdd.read_videos`' and `ind.read_videos`' decision
    source = (SRC / "cli.py").read_text()
    for name in ("annotations.txt", "_tracks.csv", "_tracksMeta"):
        assert name not in source, name


def test_the_cli_offers_the_pair_code_it_runs_without_importing_it() -> None:
    from trajscope import aim, cli

    assert cli.extract_interactions is aim.extract_interactions  # the benchmark self-test reads it
    for name in ("final_bounds", "fit_normalizers", "sweep", "measure_interaction"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(cli, name)
