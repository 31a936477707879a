"""Static dataset metadata: frame rates, splits, scene overlap relations.

The registry ships as a YAML file (`trajscope/data/registry.yaml`) so the
curated parts — which videos overlap in place or time, which were recorded
simultaneously — can be amended by hand. `load_registry()` validates the
schema strictly (an unknown key is an error naming where it is) but reports
inconsistencies *within* the curated group notes as warnings rather than
errors, because the shipped notes intentionally reproduce their source
verbatim, quirks included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .types import ConfigError, check_positive, load_yaml, unknown_keys

SCHEMA_VERSION = 1
OVERLAP_LEVELS = ("none", "partial", "full")
SPLIT_PARTS = ("train", "val", "test")
# the keys each mapping may hold; only sdd and ind are dataset sections
DATASET_KEYS = {
    "sdd": {"frame_rate", "scenes", "split"},
    "ind": {"frame_rate", "recordings", "intersections", "split"},
}
SCENE_KEYS = {"videos", "location_overlap", "time_overlap", "simultaneous_groups"}


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
    ind_recordings: list[int]
    ind_intersections: list[tuple[int, int]]
    # dataset -> video key as the store writes it ("quad/video0", "6") -> partition
    splits: dict[str, dict[str, str]]
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
        """Partition of a video ("quad/video0" for sdd, a recording id for ind), or None."""
        try:
            return self.splits[dataset.lower()].get(str(video))
        except KeyError:
            raise ConfigError(f"unknown dataset {dataset.lower()!r}") from None

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


def _known_keys(body: Mapping, allowed: set[str], where: str) -> None:
    unknown = unknown_keys(body, allowed)
    _require(not unknown, f"unknown keys in {where}: {unknown}")


def _int_list(value, what: str) -> list[int]:
    _require(isinstance(value, list), f"{what} must be a list")
    integers = all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    _require(integers, f"{what} entries must be integers")
    return value


def _load_sdd(section: Mapping, warnings: list[str]) -> dict[str, SceneOverlap]:
    _require(isinstance(section.get("scenes"), dict), "sdd.scenes must be a mapping")
    scenes: dict[str, SceneOverlap] = {}
    spellings: dict[str, object] = {}  # lower-cased name -> the name as written
    for name, body in section["scenes"].items():
        _require(isinstance(body, dict), f"sdd scene {name!r} must be a mapping")
        key = str(name).lower()
        first = spellings.setdefault(key, name)
        _require(first == name, f"sdd scenes {first!r} and {name!r} differ only in case")
        _known_keys(body, SCENE_KEYS, f"sdd.scenes.{key}")
        videos = _int_list(body.get("videos", []), f"sdd.{key}.videos")
        location = str(body.get("location_overlap", "")).lower()
        time = str(body.get("time_overlap", "")).lower()
        _require(location in OVERLAP_LEVELS, f"sdd.{key}.location_overlap must be one of {OVERLAP_LEVELS}")
        _require(time in OVERLAP_LEVELS, f"sdd.{key}.time_overlap must be one of {OVERLAP_LEVELS}")
        raw_groups = body.get("simultaneous_groups", [])
        _require(isinstance(raw_groups, list), f"sdd.{key}.simultaneous_groups must be a list")
        groups = [_int_list(g, f"sdd.{key} group") for g in raw_groups]
        warnings += [
            f"sdd scene {key}: group {g} references video(s) {sorted(set(g).difference(videos))} "
            "not in the scene's video list"
            for g in groups if not set(g) <= set(videos)
        ]
        seen: set[int] = set()
        for g in groups:
            dup = sorted(seen & set(g))
            if dup:
                warnings.append(f"sdd scene {key}: video(s) {dup} appear in more than one group")
            seen |= set(g)
        scenes[key] = SceneOverlap(scene=key, videos=videos, location=location, time=time, groups=groups)
    return scenes


def _load_ind(section: Mapping) -> tuple[list[int], list[tuple[int, int]]]:
    recordings = _int_list(section.get("recordings", []), "ind.recordings")
    raw_ranges = section.get("intersections", [])
    _require(isinstance(raw_ranges, list) and raw_ranges, "ind.intersections must be a non-empty list")
    ranges = [tuple(_int_list(r, "ind.intersections entry")) for r in raw_ranges]
    _require(all(len(r) == 2 and r[0] <= r[1] for r in ranges), "ind.intersections entries must be [lo, hi]")
    return recordings, ranges


def _split(section: Mapping, dataset: str, members: str, known: Mapping) -> dict[str, str]:
    """Video key -> partition of `section`'s split; `known` maps each valid member to its key."""
    raw = section.get("split") or {}
    _require(isinstance(raw, dict), f"{dataset}.split must be a mapping")
    split: dict[str, str] = {}
    for part, listed in raw.items():
        _require(part in SPLIT_PARTS, f"{dataset}.split key {part!r} must be one of {SPLIT_PARTS}")
        _require(isinstance(listed, list), f"{dataset}.split.{part} must be a list")
        for m in listed:
            # an unhashable member cannot be looked up, and True would find recording 1
            key = known.get(m) if isinstance(m, (int, str)) and not isinstance(m, bool) else None
            _require(key is not None, f"{dataset}.split.{part}: {m!r} is not {members}")
            _require(key not in split, f"{dataset} video {m!r} assigned to both {split.get(key)} and {part}")
            split[key] = part
    return split


def load_registry(path: str | Path | None = None) -> DatasetRegistry:
    """Load and validate a registry file; default is the packaged one."""
    registry_path = Path(path) if path is not None else default_registry_path()
    doc = load_yaml(registry_path, "registry: ")
    _require(isinstance(doc, dict), "top level must be a mapping")
    _require("version" in doc, "missing `version` field")
    _require(doc["version"] == SCHEMA_VERSION, f"unsupported schema version {doc['version']!r}")
    _known_keys(doc, {"version", "datasets"}, "the top level")
    datasets = doc.get("datasets")
    _require(isinstance(datasets, dict), "`datasets` must be a mapping")
    _known_keys(datasets, set(DATASET_KEYS), "datasets")

    frame_rates: dict[str, float] = {}
    for name, section in datasets.items():
        _require(isinstance(section, dict), f"dataset section {name!r} must be a mapping")
        _known_keys(section, DATASET_KEYS[name], name)
        check_positive(section.get("frame_rate"), f"registry: {name}.frame_rate")
        frame_rates[name] = float(section["frame_rate"])

    warnings: list[str] = []
    sdd_scenes = _load_sdd(datasets["sdd"], warnings) if "sdd" in datasets else {}
    ind_recordings, ind_ranges = _load_ind(datasets["ind"]) if "ind" in datasets else ([], [])
    videos = [f"{scene}/video{v}" for scene, overlap in sdd_scenes.items() for v in overlap.videos]
    splits = {
        "sdd": _split(datasets.get("sdd", {}), "sdd", "a scene/videoN of sdd.scenes", {v: v for v in videos}),
        "ind": _split(datasets.get("ind", {}), "ind", "a recording id of ind.recordings",
                      {r: str(r) for r in ind_recordings}),
    }
    return DatasetRegistry(
        frame_rates=frame_rates,
        sdd_scenes=sdd_scenes,
        ind_recordings=ind_recordings,
        ind_intersections=ind_ranges,
        splits=splits,
        warnings=warnings,
    )
