"""Command-line surface: ingest raw annotations once, then run statistics,
interaction measurement, and prediction evaluation against the stored
trajectories.

    trajscope ingest --config run.yaml
    trajscope stats  --config run.yaml
    trajscope aim    --config run.yaml --pair 12,31 --sweep-delta 1.0,0.98
    trajscope eval   --config run.yaml --lost-policy keep_lost,filter_keep_first

All outputs are deterministic: identical config and inputs produce
byte-identical files (sorted iteration everywhere, fixed decimal formats,
no timestamps). Status lines go to stderr; data goes to files.
"""
from __future__ import annotations

import os

# src/ makes no BLAS call, yet OpenBLAS starts its thread pool when numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import dataclasses
import json
import math
import shutil
import sys
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .preprocess import LostPolicy, PreprocessConfig
from .types import (  # DEFAULT_BANDWIDTHS and DEFAULT_N_MIN stay importable from here
    DEFAULT_BANDWIDTHS, DEFAULT_DELTA, DEFAULT_N_MIN, ConfigError, MIConfig, RhoConfig, ToolError, Trajectory,
    checked_count, checked_delta, is_number, load_yaml, row_columns, unknown_keys,
)

# Beyond config loading, each command imports the modules it runs when it
# runs, so that no command pays to load the others.
if TYPE_CHECKING:
    from .aim import MeasureSeries
    from .registry import DatasetRegistry


def __getattr__(name: str):
    # the benchmark self-test reads cli.extract_interactions; aim loads only when it is read
    if name != "extract_interactions":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(".aim", __package__).extract_interactions


EXPORT_FORMATS = ("csv", "jsonl", "both")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from YAML plus --out. Checked when
    built, also by dataclasses.replace. No path is checked and `inputs` may be
    empty: the code that opens a path checks it, so only ingest needs inputs."""

    dataset: str
    inputs: list[Path]
    out: Path
    registry_path: Path | None
    preprocess: PreprocessConfig
    rho: RhoConfig
    fit_v0: bool
    fit_sigma_d: bool
    fit_a0: bool
    export_format: str
    # the aim: section
    delta: float = DEFAULT_DELTA
    n_window: int | None = None
    mi: MIConfig = MIConfig()

    def __post_init__(self) -> None:
        if self.dataset not in ("sdd", "ind"):
            raise ConfigError(f"dataset must be 'sdd' or 'ind', got {self.dataset!r}")
        object.__setattr__(self, "delta", checked_delta(self.delta, "aim.delta"))
        if self.n_window is not None:
            object.__setattr__(self, "n_window", checked_count(self.n_window, "aim.n_window"))
        if self.export_format not in EXPORT_FORMATS:
            raise ConfigError(f"export_format must be one of {EXPORT_FORMATS}, got {self.export_format!r}")

    @property
    def store_dir(self) -> Path:
        return self.out / "store"

    @property
    def reports_dir(self) -> Path:
        return self.out / "reports"

    @property
    def aim_dir(self) -> Path:
        return self.out / "aim"


# section -> key -> kind, in the order the keys are checked. An absent key
# takes the default of the field it fills (PreprocessConfig, RhoConfig,
# MIConfig, or RunConfig for aim:).
_SECTIONS: dict[str, dict[str, type]] = {
    "preprocess": {
        "lost_policy": LostPolicy, "drop_generated": bool, "target_rate": float,
        "observe_len": int, "predict_len": int, "stride": int,
    },
    "rho": {
        "alpha": float, "v0": float, "sigma_d": float, "a0": float,
        "use_v": bool, "use_d": bool, "use_h": bool, "use_a": bool,
    },
    "aim": {"delta": float, "n_window": int},
    "mi": {"bandwidths": tuple, "weights": tuple, "n_min": int},
}
# Keys where null means the same as absent: the default, or for rho's
# normalizer constants a fit from the data.
_NULLABLE = {"preprocess.stride", "rho.v0", "rho.sigma_d", "rho.a0", "aim.n_window", "mi.weights"}

_EXPECTED = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    tuple: "a list of numbers",
    str: "a non-empty string",
}


def _convert(key: str, value, kind: type, what: str = "config key"):
    """One value as `kind`, or a ConfigError naming the key (`what` says
    whether it is a config key or a command-line option).

    `tuple` means a list of floats. A bool must be a YAML boolean (a quoted
    "false" is not one) and a number a YAML number (a quoted "2" is not
    one); numbers must be finite, and integers integral.
    """
    if kind is LostPolicy:
        return LostPolicy.parse(value)
    if kind is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_convert(key, item, float) for item in value)
    elif kind in (bool, str):
        if isinstance(value, kind) and value != "":  # an empty path would be read as "."
            return value
    elif is_number(value) or what == "option":  # an option is text to parse
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(value) if isinstance(value, int) else kind(number)
    raise ConfigError(f"{what} {key} must be {_EXPECTED[kind]}, got {value!r}")


def _section(raw: Mapping, name: str) -> dict:
    """The converted values of a config section's keys that are set; a null
    section is an empty one."""
    kinds = _SECTIONS[name]
    section = {} if raw.get(name) is None else raw[name]
    if not isinstance(section, Mapping):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = unknown_keys(section, kinds)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {unknown}")
    return {
        key: _convert(f"{name}.{key}", section[key], kind)
        for key, kind in kinds.items()
        if key in section and not (section[key] is None and f"{name}.{key}" in _NULLABLE)
    }


def load_run_config(config_path, out_override: str | None = None) -> RunConfig:
    config_file = Path(config_path)
    if not config_file.is_file():
        raise ConfigError(f"config file does not exist: {config_file}")
    raw = load_yaml(config_file)
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config file {config_file} must contain a mapping")
    allowed_top = ("dataset", "inputs", "out", "registry", *_SECTIONS, "export_format")
    unknown = unknown_keys(raw, allowed_top)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")

    inputs_raw = [] if raw.get("inputs") is None else raw["inputs"]  # null is no entry, a scalar one
    inputs = [Path(_convert("inputs", p, str)) for p in (inputs_raw if isinstance(inputs_raw, list) else [inputs_raw])]

    if out_override is not None:
        out_raw = _convert("--out", out_override, str, "option")
    elif raw.get("out") is None:
        raise ConfigError("no output directory: set out: in the config or pass --out")
    else:
        out_raw = _convert("out", raw["out"], str)

    registry_raw = raw.get("registry")
    registry_path = None if registry_raw is None else Path(_convert("registry", registry_raw, str))

    preprocess = PreprocessConfig(**_section(raw, "preprocess"))
    rho_given = _section(raw, "rho")
    rho = RhoConfig(**rho_given)

    return RunConfig(
        dataset=raw.get("dataset"),
        inputs=inputs,
        out=Path(out_raw),
        registry_path=registry_path,
        preprocess=preprocess,
        rho=rho,
        # an unset normalizer constant is fitted from the data
        fit_v0="v0" not in rho_given,
        fit_sigma_d="sigma_d" not in rho_given,
        fit_a0="a0" not in rho_given,
        export_format="both" if raw.get("export_format") is None else raw["export_format"],
        **_section(raw, "aim"),
        mi=MIConfig(**_section(raw, "mi")),
    )


# --- report writing ---------------------------------------------------------------


def _groups_text(groups: tuple[tuple[int, ...], ...]) -> str:
    return "|".join("-".join(map(str, group)) for group in groups)


def _write_table(
    base: Path, columns: Mapping[str, Sequence], decimals: Mapping[str, int], export_format: str
) -> list[Path]:
    """Write a table, given as name -> column in field order, as <base>.csv
    and/or <base>.jsonl. A column named in `decimals` holds floats: the CSV
    prints that many decimals, the JSONL rounds them with Python's `round`.
    A tuple of id groups is one CSV cell, 1-2-3|4-5; the JSONL keeps the
    nested lists. A table written in one format removes its file in the
    other, so the files hold the last run's tables only.
    """
    base.parent.mkdir(parents=True, exist_ok=True)
    if export_format != "both":
        (base.parent / f"{base.name}.{'jsonl' if export_format == 'csv' else 'csv'}").unlink(missing_ok=True)
    written = []
    # append extensions rather than with_suffix: base names may contain dots
    if export_format in ("csv", "both"):
        path = base.parent / (base.name + ".csv")
        cells = []
        for name, column in columns.items():
            if name in decimals:
                spec = f".{decimals[name]}f"
                cells.append([format(v, spec) for v in column])
            else:
                cells.append([_groups_text(v) if isinstance(v, tuple) else str(v) for v in column])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(columns))
            writer.writerows(zip(*cells))
        written.append(path)
    if export_format in ("jsonl", "both"):
        path = base.parent / (base.name + ".jsonl")
        names = sorted(columns)
        values = [
            [round(v, decimals[name]) for v in columns[name]] if name in decimals else columns[name]
            for name in names
        ]
        with open(path, "w") as fh:
            fh.writelines(json.dumps(dict(zip(names, row))) + "\n" for row in zip(*values))
        written.append(path)
    return written


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _load_registry(cfg: RunConfig) -> DatasetRegistry:
    """The run's registry, with each of its warnings shown on stderr."""
    from .registry import load_registry

    registry = load_registry(cfg.registry_path)
    for warning in registry.warnings:
        _status(f"warning: {warning}")
    return registry


def _videos(cfg: RunConfig) -> Iterator[tuple[tuple[str, str, str], list[Trajectory]]]:
    """`store.videos` of the run's store, read as the caller reads it. Frame
    rate, classes and window come from the config's dataset, so a video of
    another dataset is a ConfigError when it is reached."""
    from .store import videos

    for key, trajectories in videos(cfg.store_dir):
        if key[0] != cfg.dataset:
            raise ConfigError(
                f"store {cfg.store_dir} holds video {'/'.join(key[1:])} of dataset {key[0]!r}, "
                f"but the config names dataset {cfg.dataset!r}"
            )
        yield key, trajectories


# --- ingest -----------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    from .store import write_store

    cfg = load_run_config(args.config, args.out)
    videos = import_module(f".{cfg.dataset}", __package__).read_videos(cfg.inputs)
    manifest = write_store(videos, cfg.store_dir)
    _status(
        f"ingested {sum(v['n_trajectories'] for v in manifest['videos'])} trajectories "
        f"({len(manifest['videos'])} videos) into {cfg.store_dir}"
    )
    return 0


# --- stats ------------------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    from .analytics import reports

    cfg = load_run_config(args.config, args.out)
    tables = reports(_videos(cfg), _load_registry(cfg), cfg.dataset)
    written = []
    for name, (columns, decimals) in tables.items():
        written += _write_table(cfg.reports_dir / name, columns, decimals, cfg.export_format)
    for name in {"lost_stats", "class_distribution", "overlap_report"} - tables.keys():  # the last run's only
        for path in (cfg.reports_dir / f"{name}.csv", cfg.reports_dir / f"{name}.jsonl"):
            path.unlink(missing_ok=True)
    _status(f"wrote {len(written)} report files to {cfg.reports_dir}")
    return 0


# --- aim --------------------------------------------------------------------------


def _parse_list(text: str, option: str, kind: type) -> list:
    """A comma-separated option value, each item converted as a config value
    is; two items with the same value are an error."""
    parts = [part for part in text.split(",") if part.strip()]
    values = [_convert(option, part, kind, "option") for part in parts]
    if not values:
        raise ConfigError(f"{option} is empty")
    for i, value in enumerate(values):
        if value in values[:i]:
            first = parts[values.index(value)]
            raise ConfigError(
                f"option {option} must be a list of distinct values, got {first!r} and {parts[i]!r}"
            )
    return values


def _export_series(
    cfg: RunConfig, video_key: tuple[str, str, str], series: MeasureSeries, swept: bool
) -> None:
    """Write one series, a column per field, plus its .meta.json sidecar."""
    pair = series.pair
    suffix = f"__d{series.delta}__n{series.n_window}" if swept else ""
    base = cfg.aim_dir / (
        f"{video_key[0]}__{video_key[1]}__{video_key[2]}"
        f"__pair_{pair.agent_i.uid}_{pair.agent_j.uid}{suffix}"
    )
    measured = slice(series.n_window, None)
    columns = {
        "frame": series.frames,
        "xi": pair.xi[measured, 0],
        "yi": pair.xi[measured, 1],
        "xj": pair.xj[measured, 0],
        "yj": pair.xj[measured, 1],
        "mi": series.mi,
        "rho": series.rho,
        "aim": series.aim,
    }
    decimals = {name: 6 for name in columns if name != "frame"}
    _write_table(base, {name: c.tolist() for name, c in columns.items()}, decimals, cfg.export_format)
    meta = {
        "dataset": video_key[0],
        "scene": video_key[1],
        "video": video_key[2],
        "agent_i": pair.agent_i.uid,
        "agent_j": pair.agent_j.uid,
        "class_i": pair.agent_i.class_label,
        "class_j": pair.agent_j.class_label,
        "delta": series.delta,
        "n_window": series.n_window,
        **dataclasses.asdict(series.rho_config),
        **dataclasses.asdict(cfg.mi),  # json writes its tuples as lists, and unset weights as null
        "first_frame": int(series.frames[0]),
        "last_frame": int(series.frames[-1]),
        "n_frames": len(series.frames),
        "final_aim": round(series.final, 6),
    }
    with open(base.parent / f"{base.name}.meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_aim(args: argparse.Namespace) -> int:
    from .aim import select

    cfg = load_run_config(args.config, args.out)
    deltas = None if args.sweep_delta is None else _parse_list(args.sweep_delta, "--sweep-delta", float)
    n_values = None if args.sweep_n is None else _parse_list(args.sweep_n, "--sweep-n", int)
    named = None
    if args.pair is not None:
        named = tuple(part.strip() for part in args.pair.split(","))
        if len(named) != 2 or not all(named):
            raise ConfigError(f"--pair expects 'TRACK_I,TRACK_J', got {args.pair!r}")
    top_k = {} if args.top_k is None else {"top_k": args.top_k}  # else select's default
    selection = select(_videos(cfg), cfg, named=named, deltas=deltas, n_values=n_values, **top_k)
    if cfg.aim_dir.exists():  # the last run's series only; an error before here leaves the earlier ones
        shutil.rmtree(cfg.aim_dir)
    for key, series in selection.series:
        _export_series(cfg, key, series, deltas is not None or n_values is not None)
    _status(
        f"exported {len(selection.series)} measure series for "
        f"{len({(key, series.pair.key) for key, series in selection.series})} directed pairs to {cfg.aim_dir} "
        f"({selection.considered} pairs considered, {selection.measurable} measurable, {selection.measured} measured, "
        f"{selection.skipped} skipped by the bound)"
    )
    return 0


# --- eval -------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import constant_velocity_predict, load_predictions, predictor_from_mapping, scores

    cfg = load_run_config(args.config, args.out)
    policies = [cfg.preprocess.lost_policy]
    if args.lost_policy is not None:
        policies = _parse_list(args.lost_policy, "--lost-policy", LostPolicy)
    predictor = constant_velocity_predict
    if args.predictor != "constant_velocity":
        if not Path(args.predictor).is_file():
            raise ConfigError(
                f"--predictor must be 'constant_velocity' or an existing predictions file, got {args.predictor!r}"
            )
        predictor = predictor_from_mapping(load_predictions(Path(args.predictor)))
    native_rate = _load_registry(cfg).frame_rate(cfg.dataset)
    rows = scores(_videos(cfg), predictor, cfg.preprocess, policies, native_rate)
    columns = row_columns(rows, ("dataset", "config", "group", "n_windows", "ade", "fde"))
    written = _write_table(cfg.reports_dir / "eval", columns, {"ade": 6, "fde": 6}, cfg.export_format)
    _status(f"wrote {len(written)} evaluation report files to {cfg.reports_dir}")
    return 0


# --- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajscope",
        description=(
            "Batch toolkit for drone-trajectory datasets: ingestion, "
            "dataset statistics, pairwise interaction measurement, and "
            "prediction evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="run configuration YAML")
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    p_ingest = sub.add_parser("ingest", help="parse raw annotations into the trajectory store")
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_stats = sub.add_parser("stats", help="write lost-annotation, class, and overlap reports")
    common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_aim = sub.add_parser("aim", help="export per-pair interaction measure series")
    common(p_aim)
    selection = p_aim.add_mutually_exclusive_group()
    selection.add_argument("--pair", default=None, help="directed pair of track ids: I,J")
    selection.add_argument(
        "--top-k", type=int, default=None, help="export the K directed pairs with the highest final measure (default 5)"
    )
    p_aim.add_argument("--sweep-delta", default=None, help="comma-separated memory factors to sweep")
    p_aim.add_argument("--sweep-n", default=None, help="comma-separated window lengths to sweep")
    p_aim.set_defaults(func=cmd_aim)

    p_eval = sub.add_parser("eval", help="score predictions with displacement errors")
    common(p_eval)
    p_eval.add_argument(
        "--predictor",
        default="constant_velocity",
        help="'constant_velocity' or a JSONL predictions file",
    )
    p_eval.add_argument(
        "--lost-policy",
        default=None,
        help="comma-separated lost policies to evaluate (default: config value)",
    )
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ToolError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
