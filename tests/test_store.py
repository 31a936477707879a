from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_traj
from trajscope import store as store_module
from trajscope.store import load_manifest, load_store, write_store
from trajscope.types import POINT_DTYPE, SourceRef, StructuralError, Trajectory


def reference_load_store(store_dir) -> list[Trajectory]:
    """The store's earlier reader, kept as the reference for the columnar
    one: `json.loads` of each whole line, the points copied row by row."""
    store_path = Path(store_dir)
    trajectories = []
    for entry in load_manifest(store_path)["videos"]:
        with open(store_path / entry["file"]) as fh:
            for line in fh:
                if line.strip():
                    record = json.loads(line)
                    trajectories.append(
                        Trajectory(
                            track_id=int(record["track_id"]),
                            class_label=str(record["class"]),
                            points=np.array(list(map(tuple, record["points"])), dtype=POINT_DTYPE),
                            source=SourceRef(
                                dataset=str(record["dataset"]),
                                scene=str(record["scene"]),
                                video=str(record["video"]),
                            ),
                            segment=int(record["segment"]),
                        )
                    )
    return trajectories


def sample_trajectories():
    src_a = SourceRef("sdd", "quad", "video0")
    src_b = SourceRef("sdd", "quad", "video1")
    t1 = make_traj([(0.5, 1.5), (2.0, 3.0)], lost=[True, False], track_id=1, source=src_a)
    t2 = make_traj([(9.0, 9.0)] * 3, track_id=2, class_label="Biker", source=src_a)
    t3 = make_traj([(4.0, 4.0)] * 2, track_id=1, source=src_b)
    # a split segment, plus occluded/generated flags on one point
    t4 = t2.with_points(np.array([(7, 1.0, 2.0, 0, 1, 1)], dtype=POINT_DTYPE), segment=2)
    return [t1, t2, t3, t4]


def test_store_roundtrip(tmp_path) -> None:
    trajs = sample_trajectories()
    write_store(trajs, tmp_path / "store")
    loaded = load_store(tmp_path / "store")
    assert len(loaded) == len(trajs)
    by_key = {(t.source.key(), t.uid): t for t in loaded}
    for original in trajs:
        stored = by_key[(original.source.key(), original.uid)]
        assert stored.class_label == original.class_label
        assert stored.segment == original.segment
        assert np.array_equal(stored.points, original.points)  # frames, coords, and flags


def test_store_layout_and_manifest(tmp_path) -> None:
    write_store(sample_trajectories(), tmp_path / "store", diagnostics={"quad/video0": {"rows": 5}})
    names = sorted(p.name for p in (tmp_path / "store").iterdir())
    assert names == [
        "manifest.json",
        "sdd__quad__video0.jsonl",
        "sdd__quad__video1.jsonl",
    ]
    manifest = load_manifest(tmp_path / "store")
    assert manifest["schema_version"] == 1
    videos = {v["video"]: v for v in manifest["videos"]}
    assert set(videos) == {"video0", "video1"}
    assert videos["video0"]["n_trajectories"] == 3
    assert videos["video0"]["n_points"] == 6
    assert manifest["diagnostics"] == {"quad/video0": {"rows": 5}}
    # one record per trajectory, valid JSON each
    lines = (tmp_path / "store" / "sdd__quad__video0.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line) for line in lines)


def test_store_deterministic_bytes(tmp_path) -> None:
    trajs = sample_trajectories()
    write_store(trajs, tmp_path / "a")
    write_store(list(reversed(trajs)), tmp_path / "b")
    for name in ("manifest.json", "sdd__quad__video0.jsonl", "sdd__quad__video1.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_store_missing(tmp_path) -> None:
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path / "nowhere")
    assert "nowhere" in str(err.value)


def test_load_store_rejects_corrupt_record(tmp_path) -> None:
    write_store(sample_trajectories(), tmp_path / "store")
    victim = tmp_path / "store" / "sdd__quad__video1.jsonl"
    victim.write_text('{"not": "a trajectory"}\n')
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path / "store")
    assert "video1" in str(err.value)


def test_write_store_empty_is_error(tmp_path) -> None:
    with pytest.raises(StructuralError):
        write_store([], tmp_path / "store")


def test_write_store_takes_one_group_per_video_lazily(tmp_path) -> None:
    trajs = sample_trajectories()
    read = []

    def videos():
        for group in ([trajs[2]], [trajs[0], trajs[1], trajs[3]]):  # video1 first
            read.append(len(group))
            yield group

    write_store(videos(), tmp_path / "lazy", diagnostics={"quad/video0": {"rows": 5}})
    write_store(trajs, tmp_path / "flat", diagnostics={"quad/video0": {"rows": 5}})
    assert read == [1, 3]
    names = sorted(p.name for p in (tmp_path / "flat").iterdir())
    for name in names:
        assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "flat" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "lazy").iterdir()) == names


@pytest.mark.parametrize(
    "groups, message",
    [
        ([[0], [1]], "the trajectories of video ('sdd', 'quad', 'video0') must come as one group"),
        (
            [[0, 2]],
            "track 1 of video ('sdd', 'quad', 'video1'): a record of another video than ('sdd', 'quad', 'video0')",
        ),
    ],
    ids=["two-groups", "mixed-group"],
)
def test_write_store_rejects_a_video_split_or_mixed_across_groups(tmp_path, groups, message) -> None:
    trajs = sample_trajectories()
    with pytest.raises(StructuralError) as err:
        write_store(([trajs[i] for i in group] for group in groups), tmp_path / "a" / "store")
    assert str(err.value) == message
    assert not (tmp_path / "a").exists()


def test_write_store_failure_leaves_an_earlier_store_as_it_was(tmp_path) -> None:
    trajs = sample_trajectories()
    store = tmp_path / "store"
    write_store(trajs, store)
    before = {p.name: p.read_bytes() for p in store.iterdir()}

    def videos():
        yield [trajs[2]]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_store(videos(), store)
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before


def test_a_rewrite_leaves_only_the_files_of_its_own_videos(tmp_path) -> None:
    trajs = sample_trajectories()
    store = tmp_path / "store"
    write_store(trajs, store)
    (store / "sdd__quad__video7.jsonl.partial").write_text("left by a killed write\n")
    (store / "notes.txt").write_text("not a store file\n")
    fresh = tmp_path / "fresh"
    write_store([trajs[2]], fresh)  # video1 alone
    write_store([trajs[2]], store)
    assert sorted(p.name for p in store.iterdir()) == ["manifest.json", "notes.txt", "sdd__quad__video1.jsonl"]
    assert all((store / p.name).read_bytes() == p.read_bytes() for p in fresh.iterdir())


@pytest.mark.parametrize(
    "manifest",
    [
        '{"videos": []}',
        '{"schema_version": 2, "videos": []}',
        '{"schema_version": "1", "videos": []}',
        "[1]",
        "not json",
    ],
)
def test_load_store_rejects_missing_or_other_schema_version(tmp_path, manifest) -> None:
    write_store(sample_trajectories(), tmp_path / "store")
    (tmp_path / "store" / "manifest.json").write_text(manifest)
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path / "store")
    assert str(tmp_path / "store") in str(err.value)
    assert "re-run the ingest command" in str(err.value)


def test_load_store_rejects_manifest_without_video_list(tmp_path) -> None:
    write_store(sample_trajectories(), tmp_path / "store")
    (tmp_path / "store" / "manifest.json").write_text('{"schema_version": 1}')
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path / "store")
    assert "manifest.json" in str(err.value) and "videos" in str(err.value)


def test_load_store_rejects_non_increasing_frames(tmp_path) -> None:
    write_store(sample_trajectories(), tmp_path / "store")
    victim = tmp_path / "store" / "sdd__quad__video1.jsonl"
    record = json.loads(victim.read_text())
    record["points"].reverse()  # frames 1, 0
    victim.write_text(json.dumps(record) + "\n")
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path / "store")
    assert str(victim) in str(err.value)
    assert "not strictly increasing" in str(err.value)


def _edit_manifest(store: Path, change) -> None:
    manifest_path = store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    change(manifest["videos"])
    manifest_path.write_text(json.dumps(manifest))


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


V0, V1 = ("sdd", "quad", "video0"), ("sdd", "quad", "video1")
# each makes the sample store's manifest one the writer cannot have written;
# `videos` is the manifest's video list (video0, video1), changed in place
MANIFEST_REFUSED = {
    "a repeated video": (lambda store, videos: videos.append(videos[1]), f"video {V1} does not follow {V1}"),
    "two swapped videos": (lambda store, videos: videos.reverse(), f"video {V0} does not follow {V1}"),
    "an empty video list": (lambda store, videos: videos.clear(), "'videos' must be a non-empty list of objects"),
    "file naming the other video": (
        lambda store, videos: videos[1].update(file="sdd__quad__video0.jsonl"),
        f"video {V1}: file is 'sdd__quad__video0.jsonl', expected 'sdd__quad__video1.jsonl'",
    ),
    "file as an absolute path": (
        lambda store, videos: videos[1].update(file=str(store / "sdd__quad__video1.jsonl")),
        "video {V1}: file is '{store}/sdd__quad__video1.jsonl', expected 'sdd__quad__video1.jsonl'",
    ),
    "file with ../": (
        lambda store, videos: videos[1].update(file="../store/sdd__quad__video1.jsonl"),
        f"video {V1}: file is '../store/sdd__quad__video1.jsonl', expected 'sdd__quad__video1.jsonl'",
    ),
    **{
        f"{field} {delta:+d}": (
            lambda store, videos, field=field, delta=delta: videos[0].update({field: videos[0][field] + delta}),
            f"video {V0}: {field} is {count + delta}, expected {count}",
        )
        for field, count in (("n_trajectories", 3), ("n_points", 6))
        for delta in (1, -1)
    },
    "a data file without its last line": (
        lambda store, videos: _drop_last_line(store / "sdd__quad__video0.jsonl"),
        f"video {V0}: n_points is 6, expected 5",
    ),
    'video 0': (
        lambda store, videos: videos[1].update(video=0),
        "source ('sdd', 'quad', 0) cannot name a store file",
    ),
    "a second entry without file": (
        lambda store, videos: videos[1].pop("file"),
        f"video {V1}: file is None, expected 'sdd__quad__video1.jsonl'",
    ),
}


@pytest.mark.parametrize("change, message", list(MANIFEST_REFUSED.values()), ids=list(MANIFEST_REFUSED))
def test_a_manifest_the_writer_cannot_write_is_one_error_naming_it(tmp_path, change, message) -> None:
    store = tmp_path / "store"
    write_store(sample_trajectories(), store)
    _edit_manifest(store, lambda videos: change(store, videos))
    with pytest.raises(StructuralError) as err:
        load_store(store)
    assert str(err.value) == f"corrupt store file {store / 'manifest.json'}: {message.format(V1=V1, store=store)}"


def test_the_video_list_is_checked_before_any_data_file_is_opened(tmp_path) -> None:
    write_store(sample_trajectories(), tmp_path)
    (tmp_path / "sdd__quad__video0.jsonl").write_text("not a store line\n")
    _edit_manifest(tmp_path, lambda videos: videos.append(videos[1]))
    with pytest.raises(StructuralError, match="manifest.json: video .* does not follow"):
        load_store(tmp_path)


def test_videos_yields_each_video_once_in_key_order_from_one_load(tmp_path, monkeypatch) -> None:
    trajs = sample_trajectories()
    write_store(trajs, tmp_path)
    loads = []
    monkeypatch.setattr(store_module, "load_store", lambda store_dir: loads.append(store_dir) or load_store(store_dir))
    got = list(store_module.videos(tmp_path))
    assert loads == [tmp_path]
    assert [key for key, _ in got] == [V0, V1]
    assert [[t.uid for t in group] for _, group in got] == [["1", "2", "2.2"], ["1"]]
    flat = [(t.source, t.uid, t.class_label, t.points.tobytes()) for _, group in got for t in group]
    assert flat == [(t.source, t.uid, t.class_label, t.points.tobytes()) for t in load_store(tmp_path)]


@st.composite
def point_arrays(draw) -> np.ndarray:
    n = draw(st.integers(0, 12))
    frames = sorted(draw(st.sets(st.integers(-(2**62), 2**62), min_size=n, max_size=n)))
    points = np.zeros(n, POINT_DTYPE)
    points["frame"] = frames
    coords = st.floats(allow_nan=False, allow_infinity=False, width=64)
    points["x"] = draw(st.lists(coords, min_size=n, max_size=n))
    points["y"] = draw(st.lists(coords, min_size=n, max_size=n))
    for flag in ("lost", "occluded", "generated"):
        points[flag] = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return points


# always tried: every flag combination, frames above 2**31, negative coordinates
ALL_FLAGS = np.array(
    [(2**31 + k, -1.5 * k, -(2.0**-60) * k, k & 1, k >> 1 & 1, k >> 2 & 1) for k in range(8)],
    dtype=POINT_DTYPE,
)
# the frame and float extremes: +-2**62, -0.0, subnormals, the largest double
EXTREMES = np.array(
    [
        (-(2**62), -0.0, 5e-324, 0, 0, 0),
        (-1, 2.0**-1060, -2.2250738585072014e-308, 1, 1, 1),
        (2**62, 1.7976931348623157e308, -1.7976931348623157e308, 0, 1, 0),
    ],
    dtype=POINT_DTYPE,
)
EMPTY = np.zeros(0, POINT_DTYPE)


@settings(max_examples=60, deadline=None)
@given(st.lists(point_arrays(), min_size=1, max_size=5))
@example([ALL_FLAGS])
# empty trajectories (the writer's `"points": []`) next to non-empty ones in both files
@example([EXTREMES, EMPTY, EMPTY, ALL_FLAGS, EMPTY, EMPTY])
@example([EMPTY, EMPTY, EMPTY])
def test_store_roundtrip_is_exact(tmp_path_factory, arrays) -> None:
    store = tmp_path_factory.mktemp("store")
    trajs = [
        # two videos, so that a load reads more than one file
        Trajectory(track_id=i, class_label="Biker", points=points, source=SourceRef("sdd", "quad", f"video{i % 2}"))
        for i, points in enumerate(arrays)
    ]
    write_store(trajs, store)
    loaded = load_store(store)
    reference = reference_load_store(store)
    assert [(t.source, t.track_id) for t in loaded] == [(t.source, t.track_id) for t in reference]
    for got, want in zip(loaded, reference):
        assert got.points.dtype == POINT_DTYPE
        assert got.points.tobytes() == want.points.tobytes()
    by_key = {(t.source.key(), t.track_id): t for t in loaded}
    for original in trajs:
        assert by_key[(original.source.key(), original.track_id)].points.tobytes() == original.points.tobytes()


def _without_points(line: str) -> str:
    record = json.loads(line)
    del record["points"]
    return json.dumps(record, sort_keys=True)


# each turns the second line of the sample video0 file into one the reader refuses
CORRUPT_LINES = {
    "a point with five columns": lambda line: line.replace("[1, 9.0, 9.0, 0, 0, 0]", "[1, 9.0, 9.0, 0, 0]"),
    "a point with seven columns": lambda line: line.replace("[1, 9.0, 9.0, 0, 0, 0]", "[1, 9.0, 9.0, 0, 0, 0, 0]"),
    "an empty point": lambda line: line.replace("[1, 9.0, 9.0, 0, 0, 0], ", "[], "),
    "a point of no columns alone": lambda line: _without_points(line)[:-1] + ', "points": [[]]}',
    "a quoted number": lambda line: line.replace("[1, 9.0,", '[1, "9.0",'),
    "a null": lambda line: line.replace("[1, 9.0,", "[1, null,"),
    "a nested list": lambda line: line.replace("[1, 9.0,", "[1, [9.0],"),
    "a flag out of range": lambda line: line.replace("[1, 9.0, 9.0, 0, 0, 0]", "[1, 9.0, 9.0, 0, 0, 256]"),
    "a float frame": lambda line: line.replace("[1, 9.0,", "[1.5, 9.0,"),
    "a line cut inside the points": lambda line: line[: line.index("[2, 9.0")],
    "a line cut after the points": lambda line: line[: line.index('"segment"')],
    "no points": _without_points,
    "compact separators": lambda line: json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")),
    "a points list that is not a list of rows": lambda line: line.replace('"points": [[', '"points": [0, ['),
}
# content the writer cannot have written, each refused with the line it is on
REFUSED_CONTENT = {
    "a NaN x": (lambda line: line.replace("[1, 9.0,", "[1, NaN,"), "line 2: a coordinate that is not finite"),
    "an Infinity y": (
        lambda line: line.replace("[1, 9.0, 9.0,", "[1, 9.0, Infinity,"),
        "line 2: a coordinate that is not finite",
    ),
    "a -Infinity x": (lambda line: line.replace("[1, 9.0,", "[1, -Infinity,"), "line 2: a coordinate that is not finite"),
    **{
        f"a {flag} flag of 2": (
            lambda line, row=row: line.replace("[1, 9.0, 9.0, 0, 0, 0]", f"[1, 9.0, 9.0, {row}]"),
            "line 2: a flag that is not 0 or 1",
        )
        for flag, row in (("lost", "2, 0, 0"), ("occluded", "0, 2, 0"), ("generated", "0, 0, 2"))
    },
    "a repeated frame": (lambda line: line.replace("[1, 9.0,", "[0, 9.0,"), "line 2: frames not strictly increasing"),
    "a record of the other video": (
        lambda line: line.replace('"video": "video0"', '"video": "video1"'),
        "line 2: a record of another video than ('sdd', 'quad', 'video0')",
    ),
    "a record of another dataset": (
        lambda line: line.replace('"dataset": "sdd"', '"dataset": "ind"'),
        "line 2: a record of another video than ('sdd', 'quad', 'video0')",
    ),
    "a repeated line": (lambda line: f"{line}\n{line}", "line 3: (track_id, segment) (2, 0) does not follow (2, 0)"),
    "track_id 3.5": (
        lambda line: line.replace('"track_id": 2', '"track_id": 3.5'),
        "line 2: track_id and segment must be integers, got (3.5, 0)",
    ),
    'track_id "3"': (
        lambda line: line.replace('"track_id": 2', '"track_id": "3"'),
        "line 2: track_id and segment must be integers, got ('3', 0)",
    ),
    "segment true": (
        lambda line: line.replace('"segment": 0', '"segment": true'),
        "line 2: track_id and segment must be integers, got (2, True)",
    ),
    'class "Unicycle"': (
        lambda line: line.replace('"class": "Biker"', '"class": "Unicycle"'),
        "line 2: class 'Unicycle' is not one of ('Pedestrian', 'Biker', 'Skater', 'Cart', 'Car', 'Bus', 'TruckBus')",
    ),
}
CORRUPT_LINES.update({name: corrupt for name, (corrupt, _) in REFUSED_CONTENT.items()})


@pytest.mark.parametrize("corrupt", list(CORRUPT_LINES.values()), ids=list(CORRUPT_LINES))
def test_a_corrupt_line_is_a_structural_error_naming_the_file(tmp_path, corrupt) -> None:
    write_store(sample_trajectories(), tmp_path)
    victim = tmp_path / "sdd__quad__video0.jsonl"
    lines = victim.read_text().splitlines()
    lines[1] = corrupt(lines[1])
    victim.write_text("\n".join(lines) + "\n")
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path)
    assert str(err.value).startswith(f"corrupt store file {victim}: ")
    # the last line of the corrupted text: line 2, or line 3 where the line is repeated
    assert str(err.value).startswith(f"corrupt store file {victim}: line {1 + len(lines[1].splitlines())}: ")


@pytest.mark.parametrize("corrupt, message", list(REFUSED_CONTENT.values()), ids=list(REFUSED_CONTENT))
def test_content_the_writer_cannot_write_is_refused_at_its_line(tmp_path, corrupt, message) -> None:
    write_store(sample_trajectories(), tmp_path)
    victim = tmp_path / "sdd__quad__video0.jsonl"
    lines = victim.read_text().splitlines()
    lines[1] = corrupt(lines[1])
    victim.write_text("\n".join(lines) + "\n")
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path)
    assert str(err.value) == f"corrupt store file {victim}: {message}"


def test_two_swapped_lines_are_refused_at_the_second(tmp_path) -> None:
    write_store(sample_trajectories(), tmp_path)
    victim = tmp_path / "sdd__quad__video0.jsonl"
    lines = victim.read_text().splitlines()
    victim.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(StructuralError) as err:
        load_store(tmp_path)
    assert str(err.value) == f"corrupt store file {victim}: line 3: (track_id, segment) (2, 0) does not follow (2, 2)"


def test_frames_at_the_ends_of_int64_load(tmp_path) -> None:
    # their difference is beyond int64, so the check compares frames rather than subtracting them
    points = np.zeros(2, POINT_DTYPE)
    points["frame"] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    write_store([Trajectory(1, "Biker", points, SourceRef("sdd", "quad", "video0"))], tmp_path)
    assert load_store(tmp_path)[0].points.tobytes() == points.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_store_refuses_a_non_finite_point_and_leaves_no_file(tmp_path, value) -> None:
    trajs = sample_trajectories()
    trajs[3].points["y"][0] = value
    with pytest.raises(StructuralError) as err:
        write_store(trajs, tmp_path / "a" / "store")
    assert str(err.value) == "track 2.2 of video ('sdd', 'quad', 'video0'): a coordinate that is not finite"
    assert not (tmp_path / "a").exists()


def _changed(trajs: list[Trajectory], index: int, **fields) -> list[Trajectory]:
    """The trajectories with fields of trajs[index] replaced."""
    return [dataclasses.replace(t, **fields) if i == index else t for i, t in enumerate(trajs)]


def _with_row(trajs: list[Trajectory], index: int, row: int, **values) -> list[Trajectory]:
    points = trajs[index].points.copy()
    for name, value in values.items():
        points[name][row] = value
    return _changed(trajs, index, points=points)


# each makes the sample trajectories of video0 a group that load_store would refuse
WRITER_REFUSES = {
    "a repeated (track_id, segment)": (
        lambda trajs: _changed(trajs, 3, segment=0),
        "track 2 of video ('sdd', 'quad', 'video0'): (track_id, segment) (2, 0) does not follow (2, 0)",
    ),
    "track_id 2.5": (
        lambda trajs: _changed(trajs, 1, track_id=2.5),
        "track 2.5 of video ('sdd', 'quad', 'video0'): track_id and segment must be integers, got (2.5, 0)",
    ),
    "a numpy segment": (
        lambda trajs: _changed(trajs, 3, segment=np.int64(2)),
        f"track 2.2 of video ('sdd', 'quad', 'video0'): track_id and segment must be integers, got {(2, np.int64(2))}",
    ),
    'class "Unicycle"': (
        lambda trajs: _changed(trajs, 1, class_label="Unicycle"),
        "track 2 of video ('sdd', 'quad', 'video0'): class 'Unicycle' is not one of "
        "('Pedestrian', 'Biker', 'Skater', 'Cart', 'Car', 'Bus', 'TruckBus')",
    ),
    "a repeated frame": (
        lambda trajs: _with_row(trajs, 1, 2, frame=1),
        "track 2 of video ('sdd', 'quad', 'video0'): frames not strictly increasing",
    ),
    "falling frames": (
        lambda trajs: _with_row(trajs, 0, 1, frame=-1),
        "track 1 of video ('sdd', 'quad', 'video0'): frames not strictly increasing",
    ),
    "a NaN x": (
        lambda trajs: _with_row(trajs, 1, 0, x=np.nan),
        "track 2 of video ('sdd', 'quad', 'video0'): a coordinate that is not finite",
    ),
    "a lost flag of 2": (
        lambda trajs: _with_row(trajs, 3, 0, lost=2),
        "track 2.2 of video ('sdd', 'quad', 'video0'): a flag that is not 0 or 1",
    ),
    "a generated flag of 255": (
        lambda trajs: _with_row(trajs, 0, 0, generated=255),
        "track 1 of video ('sdd', 'quad', 'video0'): a flag that is not 0 or 1",
    ),
}


@pytest.mark.parametrize("change, message", list(WRITER_REFUSES.values()), ids=list(WRITER_REFUSES))
def test_write_store_refuses_what_load_store_refuses_and_leaves_no_file(tmp_path, change, message) -> None:
    trajs = change(sample_trajectories())
    video1 = [t for t in trajs if t.source.video == "video1"]
    with pytest.raises(StructuralError) as err:
        write_store([video1, [t for t in trajs if t.source.video == "video0"]], tmp_path / "a" / "store")
    assert str(err.value) == message
    assert not (tmp_path / "a").exists()


def test_load_peak_is_a_small_multiple_of_the_arrays(tmp_path) -> None:
    rng = np.random.default_rng(0)
    trajs = []
    for video in range(2):
        for track in range(20):
            points = np.zeros(1000, POINT_DTYPE)
            points["frame"] = np.arange(1000) + 5000 * track
            points["x"], points["y"] = rng.uniform(0, 2000, (2, 1000)).round(1)
            points["lost"] = rng.random(1000) < 0.1
            trajs.append(Trajectory(track, "Pedestrian", points, SourceRef("sdd", "quad", f"video{video}")))
    write_store(trajs, tmp_path)
    load_store(tmp_path)  # first-call caches
    loaded: list[list[Trajectory]] = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded.append(load_store(tmp_path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    nbytes = sum(t.points.nbytes for t in loaded[0])
    assert nbytes == 40_000 * POINT_DTYPE.itemsize
    # Measured: 1.25x (the line-by-line reference reader: 1.34x). While a
    # file is read, its points text is held once and freed as numpy fills
    # the file's array, next to the arrays of the files read before it.
    assert peak <= 1.4 * nbytes, peak / nbytes
