"""Shared domain types, error classes, setting rules, input-file rules, tables.

Coordinates are pixel-space throughout: x grows rightward, y grows downward.
All timestamps are integer frame indices in the source video's native clock.

Every setting rule lives here, with its default: integers, positive numbers,
the memory factor, `RhoConfig` and `MIConfig`. The CLI's `RunConfig`, `aim`
and `mi` all check with them, so they accept the same values.

A trajectory's points are one numpy structured array of POINT_DTYPE, one
row per frame in increasing frame order. Its fields follow the store's
column order: frame (int64), x and y (float64), and the lost, occluded and
generated flags (uint8, 0 or 1).
"""
from __future__ import annotations

import math
import numbers
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Container, Hashable, Iterable, Iterator, Sequence

import numpy as np
import yaml

# Canonical class labels. SDD ships the first six; inD maps onto
# {Pedestrian, Biker, Car, TruckBus}. TruckBus stays distinct from Bus
# because the two datasets count them differently.
SDD_CLASSES: tuple[str, ...] = ("Pedestrian", "Biker", "Skater", "Cart", "Car", "Bus")
IND_CLASSES: tuple[str, ...] = ("Pedestrian", "Biker", "Car", "TruckBus")
ALL_CLASSES: tuple[str, ...] = SDD_CLASSES + ("TruckBus",)

_CANONICAL_BY_LOWER = {c.lower(): c for c in ALL_CLASSES}


def canonical_class(label: str) -> str | None:
    """Map a raw class label to its canonical spelling, case-insensitively.

    Returns None for labels outside the known set; callers decide whether
    that is a parse error or a mapping concern.
    """
    return _CANONICAL_BY_LOWER.get(label.strip().lower())


class ToolError(Exception):
    """Base class for all errors this package raises deliberately."""


class ParseError(ToolError):
    """A malformed input row. Carries the source path and 1-based line number."""

    def __init__(self, message: str, path: str = "<input>", line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")


def not_utf8(path) -> ParseError:
    """The ParseError for a file that does not decode as UTF-8, naming the
    line of its first bad byte (lines counted by "\\n")."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        return ParseError(f"not valid UTF-8 (byte 0x{data[exc.start]:02x})", str(path), line_no)
    return ParseError("not valid UTF-8", str(path))


class StructuralError(ToolError):
    """Input parsed row-by-row but violates a cross-row constraint."""


class ConfigError(ToolError):
    """An invalid configuration value or registry schema violation."""


class _Rules(yaml.resolver.Resolver):
    """A PyYAML loader mixin that refuses a mapping repeating a key (PyYAML
    keeps the last) at the repeat; a key beside a `<<` merge overrides it.
    A decimal number with an exponent is a float, as in YAML 1.2: YAML 1.1
    reads `1e-3` or `1.25e2` as text, as it wants a dot and a signed exponent."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):  # the base loader refuses it
                break
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark, f"found duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


# the first call on _Rules copies the resolver table into it, so the safe loaders keep theirs
_Rules.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_yaml(path: Path, prefix: str = ""):
    """The YAML document in the file at `path`, read by libyaml's safe loader
    when PyYAML has it and by the pure-Python one otherwise.

    A file that is not UTF-8 is a ParseError naming its first bad byte's
    line; one that is not YAML, or repeats a key in a mapping, is a
    ConfigError, `prefix` then `path:line`.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    loader = type("Loader", (_Rules, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(f"{prefix}{where}: not valid YAML ({getattr(exc, 'problem', exc)})") from None


def unknown_keys(mapping: Iterable, allowed: Container) -> list[str]:
    """The keys of `mapping` not in `allowed` as sorted text: a YAML key may be a number or null."""
    return sorted(str(key) for key in mapping if key not in allowed)


def checked_count(value, name: str, minimum: int = 1) -> int:
    """`value` as an int, if it is an integer (not a bool or a float) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def is_number(value) -> bool:
    """A real number: an int, float or numpy number, but not a bool (text is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(value, name: str, zero: bool = False) -> None:
    """A ConfigError unless `value` is a finite number (not a bool) > 0, or >= 0 with `zero`."""
    if not is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (0 <= value if zero else 0 < value) or not value <= sys.float_info.max:
        raise ConfigError(f"{name} must be {'>=' if zero else '>'} 0, got {value!r}")


DEFAULT_DELTA = 0.98
# Kinematics window length in native frames when the config leaves it null:
# about 1 second of motion history at each dataset's frame rate.
DEFAULT_N_WINDOW = {"sdd": 30, "ind": 25}
DEFAULT_BANDWIDTHS: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
DEFAULT_N_MIN = 10


def checked_delta(delta, name: str = "delta") -> float:
    """`delta` as a float, if it is a memory factor: a number in (0, 1]."""
    if not is_number(delta):
        raise ConfigError(f"{name} must be a number, got {delta!r}")
    if not 0.0 < delta <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1], got {delta!r}")
    return float(delta)


def _numbers(values, name: str) -> list:
    """`values` as a list, if it is a list (or another iterable) of real numbers."""
    try:
        listed = list(values)
    except TypeError:  # not iterable, such as a bare number
        listed = None
    if listed is None or not all(is_number(v) for v in listed):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return listed


@dataclass(frozen=True)
class MIConfig:
    """The dependence estimator's settings (see `trajscope.mi`): the grid cell
    sizes of its bandwidth ensemble, one weight per bandwidth, and the samples
    an estimate needs. Unset weights stay None, as meta.json records them, and
    mean equal weights (`ensemble_weights`). Stored as float tuples and an int.
    Checked when built, also by dataclasses.replace: a bad field is a ConfigError.
    """

    bandwidths: tuple[float, ...] = DEFAULT_BANDWIDTHS
    weights: tuple[float, ...] | None = None
    n_min: int = DEFAULT_N_MIN

    def __post_init__(self) -> None:
        bandwidths = _numbers(self.bandwidths, "bandwidths")
        if len(bandwidths) == 0 or not all(b > 0 for b in bandwidths):
            raise ConfigError(f"bandwidths must be positive, got {bandwidths!r}")
        if math.inf in bandwidths:
            raise ConfigError(f"bandwidths must be finite, got {bandwidths!r}")
        object.__setattr__(self, "bandwidths", tuple(float(b) for b in bandwidths))
        if self.weights is not None:
            weights = _numbers(self.weights, "weights")
            if len(weights) != len(bandwidths):
                raise ConfigError("need one weight per bandwidth")
            # weights in [0, 1] rules out NaN and inf before they reach the sum
            if not all(0 <= w <= 1 for w in weights) or abs(math.fsum(weights) - 1.0) > 1e-9:
                raise ConfigError(f"weights must be nonnegative and sum to 1, got {weights!r}")
            object.__setattr__(self, "weights", tuple(float(w) for w in weights))
        object.__setattr__(self, "n_min", checked_count(self.n_min, "n_min"))

    @property
    def ensemble_weights(self) -> tuple[float, ...]:
        """The weight of each bandwidth in the ensemble: `weights`, or equal weights."""
        if self.weights is None:
            return (1.0 / len(self.bandwidths),) * len(self.bandwidths)
        return self.weights


def check_first_eval_point(first: int, n_min: int) -> None:
    """An InsufficientDataError unless the first estimate, after `first` samples, has `n_min`."""
    if first < n_min:
        raise InsufficientDataError(f"first eval point {first} is below the {n_min}-sample minimum")


@dataclass(frozen=True)
class RhoConfig:
    """Physics-weight shape: rho = (alpha + V*) * D* * (1 + H*).

    V* = v / (v + v0) saturates toward 1 for fast pairs; alpha keeps a
    floor so stationary-but-close pairs are not zeroed outright.
    D* = exp(-d / sigma_d) decays with separation.
    H* = 1 - 2h/pi is +1 heading straight at the partner, -1 directly away.
    With use_a, the velocity factor becomes (alpha + V* + A*) where
    A* = a / (a + a0); the augmentation is part of the velocity factor and
    is ignored when use_v is off. Each use_* flag replaces its factor by 1.
    Checked when built, also by dataclasses.replace: a bad field is a ConfigError.
    """

    alpha: float = 0.3
    v0: float = 1.0
    sigma_d: float = 125.0
    a0: float = 0.25
    use_v: bool = True
    use_d: bool = True
    use_h: bool = True
    use_a: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha", "v0", "sigma_d", "a0"):
            check_positive(getattr(self, name), name, zero=name == "alpha")
        for name in ("use_v", "use_d", "use_h", "use_a"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be True or False, got {getattr(self, name)!r}")


class InsufficientDataError(ToolError):
    """Too few samples for the requested computation."""


class DomainError(ToolError):
    """A value outside an operation's mathematical domain."""


@dataclass(frozen=True)
class SourceRef:
    """Identifies where a trajectory came from: (dataset, scene, video)."""

    dataset: str
    scene: str
    video: str

    def key(self) -> tuple[str, str, str]:
        return (self.dataset, self.scene, self.video)


POINT_DTYPE = np.dtype(
    [
        ("frame", np.int64),
        ("x", np.float64),
        ("y", np.float64),
        ("lost", np.uint8),
        ("occluded", np.uint8),
        ("generated", np.uint8),
    ]
)


@dataclass(eq=False)
class Trajectory:
    """Ordered per-frame center coordinates for one track.

    `points` is a POINT_DTYPE array. `segment` distinguishes pieces of the
    same raw track id after a split-into-segments filter; segment 0 is the
    unsplit/first piece.
    """

    track_id: int
    class_label: str
    points: np.ndarray
    source: SourceRef
    segment: int = 0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def uid(self) -> str:
        if self.segment:
            return f"{self.track_id}.{self.segment}"
        return str(self.track_id)

    def frames(self) -> np.ndarray:
        return self.points["frame"].copy()

    def xy(self) -> np.ndarray:
        """(n, 2) float array of center coordinates in point order."""
        return np.column_stack((self.points["x"], self.points["y"]))

    def lost_flags(self) -> np.ndarray:
        return self.points["lost"].astype(bool)

    def with_points(self, points: np.ndarray, segment: int | None = None) -> "Trajectory":
        return Trajectory(
            track_id=self.track_id,
            class_label=self.class_label,
            points=points,
            source=self.source,
            segment=self.segment if segment is None else segment,
        )


def row_columns(rows: Sequence, names: Sequence[str]) -> dict[str, list]:
    """The named attributes of each row, a column at a time: a report table."""
    return {name: [getattr(row, name) for row in rows] for name in names}


def input_files(inputs: Sequence[Path], pattern: str) -> list[Path]:
    """Each input that is a file, and the files matching `pattern` under each
    input directory, in that order; a file reached again, by any spelling of
    its path, is left out. No input, a missing input, an input file whose
    name does not match, or a directory without any, is a ConfigError: both
    readers call this first, so ingest refuses them before writing."""
    if not inputs:
        raise ConfigError("config needs at least one entry under inputs:")
    found: dict[Path, Path] = {}
    for path in inputs:
        if not path.exists():
            raise ConfigError(f"input path does not exist: {path}")
        if path.is_file() and not path.match(pattern):
            raise ConfigError(f"input file {path} does not match {pattern}")
        hits = [path] if path.is_file() else sorted(path.rglob(pattern))
        if not hits:
            raise ConfigError(f"no {pattern} files found under {path}")
        for hit in hits:
            found.setdefault(hit.resolve(), hit)
    return list(found.values())


def claim_video(claimed: dict[tuple[str, str], Path], video: tuple[str, str], path: Path) -> None:
    """Record `path` as the file of `video`, its (scene, video); a second file for it is a ConfigError."""
    first = claimed.setdefault(video, path)
    if first != path:
        raise ConfigError(f"two input files for video {'/'.join(video)}: {first} and {path}")


def split_tracks(track_ids: np.ndarray, points: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Each track's id, row indices and points, tracks by increasing id, rows by frame."""
    order = np.lexsort((points["frame"], track_ids))
    cuts = np.flatnonzero(np.diff(track_ids[order])) + 1
    for rows in np.split(order, cuts) if order.size else []:
        yield int(track_ids[rows[0]]), rows, points[rows]


def read_columns(text: IO[str] | Iterable[str], dtype: np.dtype, **options) -> np.ndarray | None:
    """Read delimited text, a stream or its lines, into a 1-D array of
    `dtype` with one np.loadtxt call.

    Returns None when numpy cannot read the text as given: a field that
    does not convert, a wrong column count, or no rows at all. The caller
    then reads the text another way or refuses it, and names the bad row
    if it can. Every numpy warning counts as a failure, so the "no data"
    warning does not escape and numpy < 2, which reads "7.0" as an integer
    with a DeprecationWarning, is not more lenient than a per-row reader.
    Comments are off: "#" is data.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(text, dtype=dtype, comments=None, ndmin=1, **options)
        except (ValueError, Warning):
            return None


def scene_diagonal(trajectories: Sequence[Trajectory]) -> float:
    """Diagonal of the bounding box of every center coordinate, in pixels.

    Used as the scale reference for distance normalization when no reference
    image is available (images are never read).
    """
    if not any(len(traj) for traj in trajectories):
        return 0.0
    xy = np.concatenate([traj.xy() for traj in trajectories])
    return float(np.hypot(*(xy.max(axis=0) - xy.min(axis=0))))
