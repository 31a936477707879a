from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from trajscope.registry import default_registry_path, load_registry
from trajscope.types import ConfigError, ParseError

# The shipped registry is curated metadata; these are its load-bearing facts.
EXPECTED_SPLITS = {
    "train": [0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 18, 19, 20, 21, 22, 23, 24, 25, 30],
    "val": [5, 14, 15, 26, 27, 31],
    "test": [6, 16, 17, 28, 29, 32],
}


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_frame_rates(registry) -> None:
    assert registry.frame_rate("sdd") == 30.0
    assert registry.frame_rate("ind") == 25.0


def test_ind_split_assignment(registry) -> None:
    for part, videos in EXPECTED_SPLITS.items():
        for v in videos:
            assert registry.split_of("ind", v) == part
    assert registry.split_of("ind", 6) == "test"


def test_ind_split_covers_all_recordings(registry) -> None:
    assigned = sorted(
        v for part in EXPECTED_SPLITS.values() for v in part
    )
    assert assigned == list(range(33))


def test_scene_overlap_queries(registry) -> None:
    coupa = registry.scene_overlap("coupa")
    assert coupa.location == "partial"
    assert coupa.time == "full"
    assert coupa.groups == [[1, 2, 3, 4]]

    dc = registry.scene_overlap("deathcircle")
    assert dc.location == "full"
    assert dc.time == "none"
    assert dc.groups == []

    nexus = registry.scene_overlap("nexus")
    assert nexus.groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]

    gates = registry.scene_overlap("gates")
    assert gates.groups == [[0, 1, 2], [4, 5, 6, 7], [5, 6]]


def test_scene_names_case_insensitive(registry) -> None:
    assert registry.scene_overlap("Coupa").time == "full"


def test_sdd_video_counts(registry) -> None:
    counts = {s: len(registry.scene_overlap(s).videos) for s in registry.scenes()}
    assert counts == {
        "bookstore": 7,
        "coupa": 4,
        "deathcircle": 5,
        "gates": 9,
        "hyang": 15,
        "little": 4,
        "nexus": 12,
        "quad": 4,
    }
    assert sum(counts.values()) == 60


def test_intersection_groups(registry) -> None:
    assert registry.ind_intersections == [(0, 6), (7, 17), (18, 29), (30, 32)]
    assert registry.intersection_of(16) == "7-17"
    assert registry.intersection_of(30) == "30-32"
    # a recording outside every range is a group of its own
    assert registry.intersection_of(40) == "40-40"
    assert registry.intersection_of("41") == "41-41"


def test_curated_quirks_surface_as_warnings(registry) -> None:
    # The curators' group notes contain a nested Gates group and a Coupa group
    # indexed past the scene's video list; both load but get flagged.
    text = "\n".join(registry.warnings)
    assert "gates" in text
    assert "coupa" in text


def _write(tmp_path: Path, body: str) -> Path:
    p = tmp_path / "registry.yaml"
    p.write_text(textwrap.dedent(body))
    return p


def test_overlapping_split_is_an_error(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        """
        version: 1
        datasets:
          ind:
            frame_rate: 25.0
            recordings: [0, 1]
            intersections: [[0, 1]]
            split: {train: [0, 1], val: [1], test: []}
        """,
    )
    with pytest.raises(ConfigError) as err:
        load_registry(path)
    assert "1" in str(err.value)


def test_schema_violation_is_an_error(tmp_path: Path) -> None:
    path = _write(tmp_path, "version: 1\ndatasets: 7\n")
    with pytest.raises(ConfigError):
        load_registry(path)


def test_missing_version_is_an_error(tmp_path: Path) -> None:
    path = _write(tmp_path, "datasets: {}\n")
    with pytest.raises(ConfigError):
        load_registry(path)


def test_unsupported_version_is_an_error(tmp_path: Path) -> None:
    path = _write(tmp_path, "version: 99\ndatasets: {}\n")
    with pytest.raises(ConfigError):
        load_registry(path)


def test_bad_overlap_level_is_an_error(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        """
        version: 1
        datasets:
          sdd:
            frame_rate: 30.0
            scenes:
              quad: {videos: [0], location_overlap: sometimes, time_overlap: none,
                     simultaneous_groups: []}
        """,
    )
    with pytest.raises(ConfigError):
        load_registry(path)


def test_nonpositive_frame_rate_is_an_error(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        """
        version: 1
        datasets:
          ind: {frame_rate: 0, recordings: [0], intersections: [[0, 0]],
                split: {train: [0], val: [], test: []}}
        """,
    )
    with pytest.raises(ConfigError):
        load_registry(path)


def test_non_utf8_registry_names_file_and_line(tmp_path: Path) -> None:
    # past the shipped registry's text, so the bad byte is not in the first chunk read
    shipped = default_registry_path().read_bytes()
    path = tmp_path / "registry.yaml"
    path.write_bytes(shipped + b"# caf\xe9\n")
    with pytest.raises(ParseError) as err:
        load_registry(path)
    line_no = shipped.count(b"\n") + 1
    assert str(err.value) == f"{path}:{line_no}: not valid UTF-8 (byte 0xe9)"


IND = "ind: {frame_rate: 25.0, recordings: [0, 1], intersections: [[0, 1]]%s}"
QUAD = "quad: {videos: [0, 1], location_overlap: full, time_overlap: full%s}"
SDD = "sdd: {frame_rate: 30.0, scenes: {%s}%s}"


def _registry(tmp_path: Path, datasets: str, top: str = "") -> Path:
    return _write(tmp_path, f"version: 1\n{top}datasets: {{{datasets}}}\n")


@pytest.mark.parametrize(
    "datasets, top, message",
    [
        (IND % ", splt: {train: [0]}", "", "unknown keys in ind: ['splt']"),
        (SDD % (QUAD % ", simultanous_groups: [[0, 1]]", ""), "",
         "unknown keys in sdd.scenes.quad: ['simultanous_groups']"),
        (SDD % (QUAD % "", ", unit: pixel"), "", "unknown keys in sdd: ['unit']"),
        (IND % "" + ", eth: {frame_rate: 2.5}", "", "unknown keys in datasets: ['eth']"),
        (IND % "", "split: {}\n", "unknown keys in the top level: ['split']"),
    ],
    ids=["dataset", "scene", "unit", "dataset-section", "top-level"],
)
def test_unknown_key_is_an_error_naming_its_path(tmp_path: Path, datasets, top, message) -> None:
    with pytest.raises(ConfigError) as err:
        load_registry(_registry(tmp_path, datasets, top))
    assert str(err.value) == f"registry: {message}"


@pytest.mark.parametrize(
    "rate, message",
    [("true", "must be a number, got True"), (".inf", "must be > 0, got inf")],
    ids=["bool", "inf"],
)
def test_frame_rate_must_be_a_finite_number(tmp_path: Path, rate, message) -> None:
    path = _registry(tmp_path, IND.replace("25.0", rate) % "")
    with pytest.raises(ConfigError) as err:
        load_registry(path)
    assert str(err.value) == f"registry: ind.frame_rate {message}"


def test_sdd_split_is_looked_up_by_the_store_video_key(tmp_path: Path) -> None:
    split = ", split: {train: [quad/video1], test: [quad/video0]}"
    registry = load_registry(_registry(tmp_path, SDD % (QUAD % "", split)))
    assert registry.splits == {"sdd": {"quad/video1": "train", "quad/video0": "test"}, "ind": {}}
    assert registry.split_of("sdd", "quad/video0") == "test"
    assert registry.split_of("SDD", "quad/video1") == "train"
    assert registry.split_of("sdd", "quad/video2") is None
    assert registry.split_of("ind", 0) is None
    with pytest.raises(ConfigError) as err:
        registry.split_of("ETH", 0)
    assert str(err.value) == "unknown dataset 'eth'"


@pytest.mark.parametrize(
    "datasets, message",
    [
        (SDD % (QUAD % "", ", split: {test: [quad/video9]}"),
         "sdd.split.test: 'quad/video9' is not a scene/videoN of sdd.scenes"),
        (SDD % (QUAD % "", ", split: {test: [quad/0]}"),
         "sdd.split.test: 'quad/0' is not a scene/videoN of sdd.scenes"),
        (SDD % (QUAD % "", ", split: {train: [quad/video0], test: [quad/video0]}"),
         "sdd video 'quad/video0' assigned to both train and test"),
        (IND % ", split: {val: [2]}", "ind.split.val: 2 is not a recording id of ind.recordings"),
        (IND % ", split: {val: ['1']}", "ind.split.val: '1' is not a recording id of ind.recordings"),
        (IND % ", split: {val: [true]}", "ind.split.val: True is not a recording id of ind.recordings"),
        (IND % ", split: {val: [[0]]}", "ind.split.val: [0] is not a recording id of ind.recordings"),
        (IND % ", split: {dev: [0]}", "ind.split key 'dev' must be one of ('train', 'val', 'test')"),
        (IND % ", split: {val: 0}", "ind.split.val must be a list"),
    ],
    ids=["sdd-unlisted", "sdd-no-video", "sdd-twice", "ind-unlisted", "ind-text", "ind-bool", "ind-list",
         "ind-part", "ind-not-list"],
)
def test_split_member_must_be_one_listed_video(tmp_path: Path, datasets, message) -> None:
    with pytest.raises(ConfigError) as err:
        load_registry(_registry(tmp_path, datasets))
    assert str(err.value) == f"registry: {message}"


def test_scene_names_that_differ_only_in_case_are_an_error(tmp_path: Path) -> None:
    scenes = QUAD % "" + ", " + QUAD.replace("quad", "Quad").replace("[0, 1]", "[5]") % ""
    with pytest.raises(ConfigError) as err:
        load_registry(_registry(tmp_path, SDD % (scenes, "")))
    assert str(err.value) == "registry: sdd scenes 'quad' and 'Quad' differ only in case"


def test_ind_split_is_looked_up_by_the_store_video_key(registry) -> None:
    # the store names an inD video by its recording id as text
    assert registry.split_of("ind", "16") == "test"
    assert registry.split_of("ind", 16) == "test"
    assert registry.split_of("ind", 33) is None
    assert registry.splits["sdd"] == {}
