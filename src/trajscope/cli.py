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
import sys
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .preprocess import LostPolicy, PreprocessConfig, preprocess_trajectory
from .types import (
    DEFAULT_BANDWIDTHS, DEFAULT_DELTA, DEFAULT_N_MIN, ConfigError, IND_CLASSES,
    InsufficientDataError, RhoConfig, SDD_CLASSES, SourceRef, ToolError, Trajectory, check_first_eval_point,
    checked_count, checked_delta, checked_mi_settings, is_number, load_yaml, scene_diagonal,
)

# Beyond config loading, each command imports the modules it runs when it
# runs, so that no command pays to load the others.
if TYPE_CHECKING:
    from .aim import MeasureSeries
    from .registry import DatasetRegistry


def __getattr__(name: str):
    # the pair code cmd_aim runs stays an attribute here, loaded only when read
    if name not in ("extract_interactions", "final_bounds", "fit_normalizers", "sweep"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".aim", __package__), name)


# Kinematics window length in native frames when the config leaves it null:
# about 1 second of motion history at each dataset's frame rate.
DEFAULT_N_WINDOW = {"sdd": 30, "ind": 25}

EXPORT_FORMATS = ("csv", "jsonl", "both")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from YAML plus --out. Checked when
    built, also by dataclasses.replace; the loader checks that the paths exist."""

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
    # the aim: and mi: sections
    delta: float = DEFAULT_DELTA
    n_window: int | None = None
    bandwidths: tuple[float, ...] = DEFAULT_BANDWIDTHS
    weights: tuple[float, ...] | None = None
    n_min: int = DEFAULT_N_MIN

    def __post_init__(self) -> None:
        if self.dataset not in ("sdd", "ind"):
            raise ConfigError(f"dataset must be 'sdd' or 'ind', got {self.dataset!r}")
        object.__setattr__(self, "delta", checked_delta(self.delta, "aim.delta"))
        if self.n_window is not None:
            object.__setattr__(self, "n_window", checked_count(self.n_window, "aim.n_window"))
        bandwidths, weights, n_min = checked_mi_settings(self.bandwidths, self.weights, self.n_min)
        object.__setattr__(self, "bandwidths", bandwidths)
        # unset weights stay None (equal weights), as meta.json records them
        object.__setattr__(self, "weights", None if self.weights is None else weights)
        object.__setattr__(self, "n_min", n_min)
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
# takes the default of the field it fills (PreprocessConfig, RhoConfig, or
# RunConfig for aim: and mi:).
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
    str: "a string",
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
        if isinstance(value, kind):
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
    """The converted values of a config section's keys that are set."""
    kinds = _SECTIONS[name]
    section = raw.get(name) or {}
    if not isinstance(section, Mapping):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = sorted(set(section) - set(kinds))
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
    unknown = sorted(set(raw) - set(allowed_top))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")

    inputs_raw = raw.get("inputs")
    if not inputs_raw:
        raise ConfigError("config needs at least one entry under inputs:")
    if not isinstance(inputs_raw, list):
        inputs_raw = [inputs_raw]
    inputs = [Path(_convert("inputs", p, str)) for p in inputs_raw]
    for path in inputs:
        if not path.exists():
            raise ConfigError(f"input path does not exist: {path}")

    out_raw = out_override or raw.get("out")
    if not out_raw:
        raise ConfigError("no output directory: set out: in the config or pass --out")
    out_raw = _convert("out", out_raw, str)

    registry_raw = raw.get("registry")
    registry_path = Path(_convert("registry", registry_raw, str)) if registry_raw else None
    if registry_path is not None and not registry_path.is_file():
        raise ConfigError(f"registry file does not exist: {registry_path}")

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
        export_format=raw.get("export_format", "both"),
        **_section(raw, "aim"),
        **_section(raw, "mi"),
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
    nested lists.
    """
    base.parent.mkdir(parents=True, exist_ok=True)
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


def _columns(rows: Sequence, names: Sequence[str]) -> dict[str, list]:
    """The named attributes of each row, a column at a time."""
    return {name: [getattr(row, name) for row in rows] for name in names}


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _load_registry(cfg: RunConfig) -> DatasetRegistry:
    """The run's registry, with each of its warnings shown on stderr."""
    from .registry import load_registry

    registry = load_registry(cfg.registry_path)
    for warning in registry.warnings:
        _status(f"warning: {warning}")
    return registry


# --- ingest -----------------------------------------------------------------------


def _find(inputs: Sequence[Path], pattern: str) -> list[Path]:
    """Each input that is a file, and the files matching `pattern` under
    each input directory; a directory without any is an error."""
    found: list[Path] = []
    for path in inputs:
        hits = [path] if path.is_file() else sorted(path.rglob(pattern))
        if not hits:
            raise ConfigError(f"no {pattern} files found under {path}")
        found += hits
    return found


def _claim_video(files: dict[tuple[str, str], Path], video: tuple[str, str], path: Path) -> None:
    """Record `path` as the input file of `video`; a second file for the same
    video is an error (the same file reached twice is not)."""
    first = files.setdefault(video, path)
    if first.resolve() != path.resolve():
        raise ConfigError(f"two input files for video {'/'.join(video)}: {first} and {path}")


def _discover_sdd(inputs: Sequence[Path]) -> list[tuple[str, str, Path]]:
    found: dict[tuple[str, str], Path] = {}
    for hit in _find(inputs, "annotations.txt"):
        _claim_video(found, (hit.parent.parent.name, hit.parent.name), hit)
    return [(scene, video, found[(scene, video)]) for scene, video in sorted(found)]


def _discover_ind(inputs: Sequence[Path]) -> list[tuple[Path, Path, Path]]:
    # one entry per file, however many inputs reach it
    tracks_files = {path.resolve(): path for path in _find(inputs, "*_tracks.csv")}
    triples = []
    for tracks in sorted(tracks_files.values()):
        if not tracks.name.endswith("_tracks.csv"):
            raise ConfigError(f"not a tracks file: {tracks}")
        prefix = tracks.name[: -len("_tracks.csv")]
        meta = tracks.with_name(f"{prefix}_tracksMeta.csv")
        recording = tracks.with_name(f"{prefix}_recordingMeta.csv")
        for required in (meta, recording):
            if not required.is_file():
                raise ConfigError(f"missing companion file: {required}")
        triples.append((tracks, meta, recording))
    return triples


def cmd_ingest(args: argparse.Namespace) -> int:
    from .store import write_store

    cfg = load_run_config(args.config, args.out)
    diagnostics: dict[str, dict] = {}  # filled as each video is read
    tracks_of: dict[tuple[str, str], Path] = {}

    def sdd_video(scene: str, video: str, path: Path) -> list[Trajectory]:
        from .sdd import IngestDiagnostics, assemble_trajectories, parse_sdd_annotations

        diag = IngestDiagnostics()
        trajectories = assemble_trajectories(parse_sdd_annotations(path), SourceRef("sdd", scene, video), diag)
        diagnostics[f"{scene}/{video}"] = diag.to_dict()
        return trajectories

    def ind_video(tracks: Path, meta: Path, recording: Path) -> list[Trajectory]:
        from .ind import parse_ind_tracks

        parsed = parse_ind_tracks(tracks, meta, recording)
        if parsed:
            video = parsed[0].source.key()[1:]
            _claim_video(tracks_of, video, tracks)
            diagnostics["/".join(video)] = {"tracks_file": tracks.name, "n_trajectories": len(parsed)}
        return parsed

    # Inputs are found now; each video is read only when the writer asks for
    # it, so one video at a time is held.
    if cfg.dataset == "sdd":
        videos = (sdd_video(*found) for found in _discover_sdd(cfg.inputs))
    else:
        videos = (ind_video(*found) for found in _discover_ind(cfg.inputs))
    manifest = write_store(videos, cfg.store_dir, diagnostics)
    _status(
        f"ingested {sum(v['n_trajectories'] for v in manifest['videos'])} trajectories "
        f"({len(diagnostics)} videos) into {cfg.store_dir}"
    )
    return 0


# --- stats ------------------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    from .analytics import class_distribution, group_trajectories_for_stats, lost_stats, overlap_report
    from .store import load_store

    cfg = load_run_config(args.config, args.out)
    registry = _load_registry(cfg)
    trajectories = load_store(cfg.store_dir)
    groups = group_trajectories_for_stats(
        trajectories, registry=registry if cfg.dataset == "ind" else None
    )

    written = _write_table(
        cfg.reports_dir / "lost_stats",
        _columns(
            lost_stats(groups),
            ("scene", "n_trajectories", "pct_lost_start", "pct_lost_middle", "pct_lost_end"),
        ),
        {"pct_lost_start": 2, "pct_lost_middle": 2, "pct_lost_end": 2},
        cfg.export_format,
    )

    classes = SDD_CLASSES if cfg.dataset == "sdd" else IND_CLASSES
    class_rows = class_distribution(groups, classes)
    written += _write_table(
        cfg.reports_dir / "class_distribution",
        {
            **_columns(class_rows, ("scene", "n_tracks")),
            **{c: [row.percentages[c] for row in class_rows] for c in classes},
        },
        {c: 2 for c in classes},
        cfg.export_format,
    )

    if cfg.dataset == "sdd":
        written += _write_table(
            cfg.reports_dir / "overlap_report",
            _columns(
                overlap_report(registry),
                ("scene", "location_overlap", "time_overlap", "simultaneous_groups"),
            ),
            {},
            cfg.export_format,
        )

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
        "bandwidths": list(cfg.bandwidths),
        "weights": None if cfg.weights is None else list(cfg.weights),
        "n_min": cfg.n_min,
        "first_frame": int(series.frames[0]),
        "last_frame": int(series.frames[-1]),
        "n_frames": len(series.frames),
        "final_aim": round(series.final, 6),
    }
    with open(base.parent / f"{base.name}.meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_aim(args: argparse.Namespace) -> int:
    from .aim import extract_interactions, final_bounds, fit_normalizers, sweep
    from .store import load_store

    cfg = load_run_config(args.config, args.out)
    n_window = cfg.n_window or DEFAULT_N_WINDOW[cfg.dataset]
    measure_options = dict(bandwidths=cfg.bandwidths, weights=cfg.weights, n_min=cfg.n_min)

    deltas = [cfg.delta]
    n_values = [n_window]
    swept = args.sweep_delta is not None or args.sweep_n is not None
    if args.sweep_delta is not None:
        deltas = [checked_delta(d) for d in _parse_list(args.sweep_delta, "--sweep-delta", float)]
    if args.sweep_n is not None:
        n_values = [checked_count(n, "n_window") for n in _parse_list(args.sweep_n, "--sweep-n", int)]
    named: tuple[str, str] | None = None
    if args.pair:
        parts = [part.strip() for part in args.pair.split(",")]
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f"--pair expects 'TRACK_I,TRACK_J', got {args.pair!r}")
        if parts[0] == parts[1]:
            raise ConfigError(f"--pair names track {parts[0]!r} twice; a pair needs two tracks")
        named = (parts[0], parts[1])
    top_k = checked_count(args.top_k if args.top_k is not None else 5, "--top-k")
    # the smallest window measured: --pair measures the n_values, the top-k ranking n_window too
    check_first_eval_point(min(n_values if named is not None else [n_window, *n_values]) + 1, cfg.n_min)

    trajectories = load_store(cfg.store_dir)
    if named is not None:
        known = {t.uid for t in trajectories}
        for uid in named:
            if uid not in known:
                raise ConfigError(f"unknown track id {uid!r} (not in the ingested store)")
    by_video: dict[tuple[str, str, str], list[Trajectory]] = {}
    for traj in trajectories:
        by_video.setdefault(traj.source.key(), []).append(traj)
    videos = sorted(by_video)
    considered = sum(len(trajs) * (len(trajs) - 1) // 2 for trajs in by_video.values())

    fit = cfg.fit_v0 or cfg.fit_a0
    base_rho = cfg.rho

    # The best top_k series so far, best first: the highest final value,
    # ties to the lower video key, then the lower pair key.
    def rank(item: tuple[tuple[str, str, str], MeasureSeries]) -> tuple:
        return (-item[1].final, item[0], item[1].pair.key)

    # With --pair, every series of the named direction; else the top_k best.
    selected: list[tuple[tuple[str, str, str], MeasureSeries]] = []
    measurable = measured = 0
    # One direction of every measurable pair, in batches: the whole store
    # when v0/a0 are fitted from it, else one video at a time, so that
    # without a fit only one video's pairs are in memory.
    for batch in [videos] if fit else [[key] for key in videos]:
        # extract_interactions puts both directions of a pair next to each other
        pairs = [(key, pair) for key in batch for pair in extract_interactions(by_video[key], n_window)[::2]]
        measurable += len(pairs)
        if fit:
            fitted = fit_normalizers([pair for _, pair in pairs], base=base_rho)
            base_rho = dataclasses.replace(
                base_rho,
                v0=fitted.v0 if cfg.fit_v0 else base_rho.v0,
                a0=fitted.a0 if cfg.fit_a0 else base_rho.a0,
            )
        # each video's config, once v0/a0 are final; a fitted sigma_d is its scene diagonal / 8
        rho_of = {key: base_rho for key, _ in pairs}
        for key in rho_of:
            diagonal = scene_diagonal(by_video[key]) if cfg.fit_sigma_d else 0.0
            if diagonal > 0:
                rho_of[key] = dataclasses.replace(base_rho, sigma_d=diagonal / 8.0)
        if named is not None:
            for key, pair in pairs:
                for direction in (pair, pair.reversed()):
                    if direction.key == named:
                        measured += 1
                        series = sweep(direction, deltas, n_values, rho_config=rho_of[key], **measure_options)
                        selected += [(key, s) for s in series]
        else:
            bounds = [
                max(final_bounds(pair, delta=cfg.delta, rho_config=rho_of[key], **measure_options))
                for key, pair in pairs
            ]
            for bound, (key, pair) in sorted(zip(bounds, pairs), key=lambda c: (-c[0], c[1][0], c[1][1].key)):
                # bounds only fall from here on, and a series whose final value is
                # below the k-th best cannot enter the selection, even by a tie
                if len(selected) == top_k and selected[-1][1].final > bound:
                    break
                measured += 1
                series = sweep(
                    pair,
                    [cfg.delta],
                    [n_window],
                    rho_config=rho_of[key],
                    both_directions=True,
                    **measure_options,
                )
                selected = sorted(selected + [(key, s) for s in series], key=rank)[:top_k]
        del pairs
    if not selected:
        raise InsufficientDataError(
            f"tracks {named[0]} and {named[1]} share too few co-present frames "
            f"(need {n_window + 1} at constant spacing in one video)"
            if named is not None
            else "no measurable pairs in the store "
            f"(need {n_window + 1} co-present frames at constant spacing)"
        )
    if named is None and swept:
        # the selected pairs, measured again at every swept setting
        selected = [
            (key, series)
            for key, best in selected
            for series in sweep(best.pair, deltas, n_values, rho_config=best.rho_config, **measure_options)
        ]

    for key, series in selected:
        _export_series(cfg, key, series, swept)
    _status(
        f"exported {len(selected)} measure series for "
        f"{len({(key, series.pair.key) for key, series in selected})} directed pairs to {cfg.aim_dir} "
        f"({considered} pairs considered, {measurable} measurable, {measured} measured, "
        f"{0 if named is not None else measurable - measured} skipped by the bound)"
    )
    return 0


# --- eval -------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import constant_velocity_predict, evaluate, load_predictions, predictor_from_mapping
    from .store import load_store

    cfg = load_run_config(args.config, args.out)
    if args.lost_policy:
        policies = _parse_list(args.lost_policy, "--lost-policy", LostPolicy)
    else:
        policies = [cfg.preprocess.lost_policy]

    if args.predictor == "constant_velocity":
        predictor = constant_velocity_predict
    else:
        predictions_path = Path(args.predictor)
        if not predictions_path.is_file():
            raise ConfigError(
                f"--predictor must be 'constant_velocity' or an existing "
                f"predictions file, got {args.predictor!r}"
            )
        predictor = predictor_from_mapping(load_predictions(predictions_path))

    registry = _load_registry(cfg)
    trajectories = load_store(cfg.store_dir)
    native_rate = registry.frame_rate(cfg.dataset)
    rows = []
    for policy in policies:
        pcfg = dataclasses.replace(cfg.preprocess, lost_policy=policy)
        windows = [
            window
            for traj in trajectories
            for window in preprocess_trajectory(traj, pcfg, native_rate)
        ]
        if not windows:
            raise InsufficientDataError(
                f"preprocessing with lost policy {policy.value!r} produced no windows"
            )
        rows += evaluate(windows, predictor, config_label=policy.value)

    written = _write_table(
        cfg.reports_dir / "eval",
        _columns(rows, ("dataset", "config", "group", "n_windows", "ade", "fde")),
        {"ade": 6, "fde": 6},
        cfg.export_format,
    )
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
