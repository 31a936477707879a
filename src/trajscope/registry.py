"""Static dataset metadata: frame rates, splits, scene overlap relations.

The registry ships as a YAML file (`trajscope/data/registry.yaml`) so the
curated parts — which videos overlap in place or time, which were recorded
simultaneously — can be amended by hand. `load_registry()` validates the
schema strictly but reports inconsistencies *within* the curated group notes
as warnings rather than errors, because the shipped notes intentionally
reproduce their source verbatim, quirks included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

import yaml

from .types import ConfigError, not_utf8

SCHEMA_VERSION = 1
OVERLAP_LEVELS = ("none", "partial", "full")
SPLIT_PARTS = ("train", "val", "test")


@dataclass(frozen=True)
class SceneOverlap:
    scene: str
    videos: list[int]
    location: str
    time: str
    groups: list[list[int]]


@dataclass
class DatasetRegistry:
    frame_rates: dict[str, float]
    sdd_scenes: dict[str, SceneOverlap]
    sdd_split: dict[str, list[str]]
    ind_recordings: list[int]
    ind_intersections: list[tuple[int, int]]
    ind_split: dict[str, list[int]]
    warnings: list[str] = field(default_factory=list)

    def frame_rate(self, dataset: str) -> float:
        try:
            return self.frame_rates[dataset.lower()]
        except KeyError:
            raise ConfigError(f"unknown dataset {dataset!r}") from None

    def scenes(self, dataset: str = "sdd") -> list[str]:
        if dataset.lower() != "sdd":
            raise ConfigError("scene queries only apply to sdd")
        return sorted(self.sdd_scenes)

    def scene_overlap(self, scene: str) -> SceneOverlap:
        try:
            return self.sdd_scenes[scene.lower()]
        except KeyError:
            raise ConfigError(f"unknown sdd scene {scene!r}") from None

    def split_of(self, dataset: str, video: int | str) -> str | None:
        dataset = dataset.lower()
        if dataset == "ind":
            vid = int(video)
            for part, members in self.ind_split.items():
                if vid in members:
                    return part
            return None
        if dataset == "sdd":
            key = str(video)
            for part, members in self.sdd_split.items():
                if key in members:
                    return part
            return None
        raise ConfigError(f"unknown dataset {dataset!r}")

    def intersection_ranges(self) -> list[tuple[int, int]]:
        return list(self.ind_intersections)

    def intersection_of(self, recording: int) -> str:
        """Group label ("lo-hi") of the intersection a recording belongs to."""
        for lo, hi in self.ind_intersections:
            if lo <= int(recording) <= hi:
                return f"{lo}-{hi}"
        raise ConfigError(f"recording {recording} is outside every intersection range")


def default_registry_path() -> Path:
    return Path(str(resources.files("trajscope").joinpath("data/registry.yaml")))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(f"registry: {message}")


def _int_list(value, what: str) -> list[int]:
    _require(isinstance(value, list), f"{what} must be a list")
    out = []
    for v in value:
        _require(isinstance(v, int) and not isinstance(v, bool), f"{what} entries must be integers")
        out.append(v)
    return out


def _load_sdd(section: Mapping, warnings: list[str]) -> tuple[dict[str, SceneOverlap], dict[str, list[str]]]:
    _require(isinstance(section.get("scenes"), dict), "sdd.scenes must be a mapping")
    scenes: dict[str, SceneOverlap] = {}
    for name, body in section["scenes"].items():
        _require(isinstance(body, dict), f"sdd scene {name!r} must be a mapping")
        key = str(name).lower()
        videos = _int_list(body.get("videos", []), f"sdd.{key}.videos")
        location = str(body.get("location_overlap", "")).lower()
        time = str(body.get("time_overlap", "")).lower()
        _require(location in OVERLAP_LEVELS, f"sdd.{key}.location_overlap must be one of {OVERLAP_LEVELS}")
        _require(time in OVERLAP_LEVELS, f"sdd.{key}.time_overlap must be one of {OVERLAP_LEVELS}")
        raw_groups = body.get("simultaneous_groups", [])
        _require(isinstance(raw_groups, list), f"sdd.{key}.simultaneous_groups must be a list")
        groups = [_int_list(g, f"sdd.{key} group") for g in raw_groups]
        video_set = set(videos)
        for g in groups:
            missing = sorted(set(g) - video_set)
            if missing:
                warnings.append(
                    f"sdd scene {key}: group {g} references video(s) {missing} "
                    f"not in the scene's video list"
                )
        seen: set[int] = set()
        for g in groups:
            dup = sorted(seen & set(g))
            if dup:
                warnings.append(f"sdd scene {key}: video(s) {dup} appear in more than one group")
            seen |= set(g)
        scenes[key] = SceneOverlap(scene=key, videos=videos, location=location, time=time, groups=groups)

    split_raw = section.get("split") or {}
    _require(isinstance(split_raw, dict), "sdd.split must be a mapping")
    split: dict[str, list[str]] = {}
    for part, members in split_raw.items():
        _require(part in SPLIT_PARTS, f"sdd.split key {part!r} must be one of {SPLIT_PARTS}")
        _require(isinstance(members, list), f"sdd.split.{part} must be a list")
        split[part] = [str(m) for m in members]
    assigned: dict[str, str] = {}
    for part, members in split.items():
        for m in members:
            _require(m not in assigned, f"sdd video {m!r} assigned to both {assigned.get(m)} and {part}")
            assigned[m] = part
    return scenes, split


def _load_ind(section: Mapping) -> tuple[list[int], list[tuple[int, int]], dict[str, list[int]]]:
    recordings = _int_list(section.get("recordings", []), "ind.recordings")
    raw_ranges = section.get("intersections", [])
    _require(isinstance(raw_ranges, list) and raw_ranges, "ind.intersections must be a non-empty list")
    ranges: list[tuple[int, int]] = []
    for r in raw_ranges:
        pair = _int_list(r, "ind.intersections entry")
        _require(len(pair) == 2 and pair[0] <= pair[1], "ind.intersections entries must be [lo, hi]")
        ranges.append((pair[0], pair[1]))

    split_raw = section.get("split") or {}
    _require(isinstance(split_raw, dict), "ind.split must be a mapping")
    split: dict[str, list[int]] = {part: [] for part in SPLIT_PARTS}
    for part, members in split_raw.items():
        _require(part in SPLIT_PARTS, f"ind.split key {part!r} must be one of {SPLIT_PARTS}")
        split[part] = _int_list(members, f"ind.split.{part}")
    assigned: dict[int, str] = {}
    recording_set = set(recordings)
    for part, members in split.items():
        for m in members:
            _require(
                m not in assigned,
                f"ind recording {m} assigned to both {assigned.get(m)} and {part}",
            )
            _require(m in recording_set, f"ind.split references unknown recording {m}")
            assigned[m] = part
    return recordings, ranges, split


def load_registry(path: str | Path | None = None) -> DatasetRegistry:
    """Load and validate a registry file; default is the packaged one."""
    registry_path = Path(path) if path is not None else default_registry_path()
    with registry_path.open("r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except UnicodeDecodeError:
            raise not_utf8(registry_path) from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"registry: {registry_path}: not valid YAML: {exc}") from None

    _require(isinstance(doc, dict), "top level must be a mapping")
    _require("version" in doc, "missing `version` field")
    _require(doc["version"] == SCHEMA_VERSION, f"unsupported schema version {doc['version']!r}")
    datasets = doc.get("datasets")
    _require(isinstance(datasets, dict), "`datasets` must be a mapping")

    warnings: list[str] = []
    frame_rates: dict[str, float] = {}
    for name, body in datasets.items():
        _require(isinstance(body, dict), f"dataset section {name!r} must be a mapping")
        rate = body.get("frame_rate")
        _require(isinstance(rate, (int, float)) and rate > 0, f"{name}.frame_rate must be positive")
        frame_rates[str(name).lower()] = float(rate)

    sdd_scenes: dict[str, SceneOverlap] = {}
    sdd_split: dict[str, list[str]] = {}
    if "sdd" in datasets:
        sdd_scenes, sdd_split = _load_sdd(datasets["sdd"], warnings)

    ind_recordings: list[int] = []
    ind_ranges: list[tuple[int, int]] = []
    ind_split: dict[str, list[int]] = {part: [] for part in SPLIT_PARTS}
    if "ind" in datasets:
        ind_recordings, ind_ranges, ind_split = _load_ind(datasets["ind"])

    return DatasetRegistry(
        frame_rates=frame_rates,
        sdd_scenes=sdd_scenes,
        sdd_split=sdd_split,
        ind_recordings=ind_recordings,
        ind_intersections=ind_ranges,
        ind_split=ind_split,
        warnings=warnings,
    )
