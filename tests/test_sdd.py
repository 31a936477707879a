from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajscope.sdd import (
    RECORD_DTYPE,
    IngestDiagnostics,
    assemble_trajectories,
    format_sdd_row,
    parse_sdd_annotations,
)
from trajscope.types import (
    ALL_CLASSES,
    ParseError,
    SourceRef,
    StructuralError,
    Trajectory,
    canonical_class,
)

SRC = SourceRef("sdd", "coupa", "video0")


def assert_same_records(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == RECORD_DTYPE
    assert len(got) == len(want)
    for name in RECORD_DTYPE.names:
        assert np.array_equal(got[name], want[name]), name


def sdd_line(row: tuple) -> str:
    """Exact text of one row: repr() round-trips every float."""
    tid, xmin, ymin, xmax, ymax, frame, lost, occluded, generated, label = row
    return (
        f"{tid} {xmin!r} {ymin!r} {xmax!r} {ymax!r} {frame} "
        f'{lost} {occluded} {generated} "{label}"'
    )


def assemble_oracle(rows: list[tuple], source: SourceRef, diagnostics: IngestDiagnostics):
    """The replaced per-row path: rows grouped by track and sorted in plain Python."""
    tracks: dict[int, list[tuple]] = {}
    for tid, xmin, ymin, xmax, ymax, frame, lost, occluded, generated, label in rows:
        point = (frame, (xmin + xmax) / 2.0, (ymin + ymax) / 2.0, lost, occluded, generated)
        tracks.setdefault(tid, []).append((point, canonical_class(label)))
    out = []
    for tid in sorted(tracks):
        members = sorted(tracks[tid], key=lambda m: m[0][0])
        for (a, _), (b, _) in zip(members, members[1:]):
            if a[0] == b[0]:
                raise StructuralError(f"track {tid} of {source.key()}: duplicate frame {a[0]}")
        labels = list(dict.fromkeys(label for _, label in members))
        if len(labels) > 1:
            diagnostics.label_changes[tid] = labels
        out.append((tid, labels[0], [point for point, _ in members]))
    diagnostics.rows += len(rows)
    diagnostics.tracks += len(out)
    return out


def any_case(label: str) -> st.SearchStrategy[str]:
    return st.sampled_from([label, label.lower(), label.upper()])


labels = st.sampled_from(ALL_CLASSES).flatmap(any_case)
coordinates = st.floats(allow_nan=False, allow_infinity=False)
flags = st.integers(0, 1)


def sdd_rows(track_ids, frames) -> st.SearchStrategy[tuple]:
    return st.tuples(
        track_ids, coordinates, coordinates, coordinates, coordinates, frames,
        flags, flags, flags, labels,
    )


def test_parse_single_row() -> None:
    rows = ['5 100 200 140 260 37 1 0 0 "Pedestrian"']
    (rec,) = parse_sdd_annotations(rows)
    assert rec["track_id"] == 5
    assert (rec["xmin"], rec["ymin"], rec["xmax"], rec["ymax"]) == (100.0, 200.0, 140.0, 260.0)
    assert rec["frame"] == 37
    assert rec["lost"] == 1
    assert rec["occluded"] == 0
    assert rec["generated"] == 0
    assert rec["label"] == "Pedestrian"


def test_parse_empty_input() -> None:
    assert len(parse_sdd_annotations([])) == 0
    assert len(parse_sdd_annotations(["", "   "])) == 0


def test_parse_preserves_row_order() -> None:
    rows = [
        '1 0 0 2 2 7 0 0 0 "Biker"',
        '0 0 0 2 2 3 0 0 0 "Pedestrian"',
    ]
    recs = parse_sdd_annotations(rows)
    assert recs["frame"].tolist() == [7, 3]


def test_parse_wrong_field_count_names_line() -> None:
    rows = ['1 0 0 2 2 7 0 0 0 "Biker"', "2 0 0 2 2 8 0 0 0"]
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(rows, path="annotations.txt")
    assert "annotations.txt:2" in str(err.value)


def test_parse_non_numeric_field() -> None:
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(['1 0 0 2 nope 7 0 0 0 "Biker"'])
    assert ":1" in str(err.value)


@pytest.mark.parametrize(
    "row, field",
    [
        ('1 nan 0 2 2 7 0 0 0 "Biker"', "xmin"),
        ('1 0 inf 2 2 7 0 0 0 "Biker"', "ymin"),
        ('1 0 0 -Infinity 2 7 0 0 0 "Biker"', "xmax"),
        ('1 0 0 2 1e999 7 0 0 0 "Biker"', "ymax"),
    ],
)
def test_parse_non_finite_coordinate_names_field_and_line(row: str, field: str) -> None:
    rows = ['1 0 0 2 2 6 0 0 0 "Biker"', row]
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(rows, path="annotations.txt")
    assert "annotations.txt:2" in str(err.value)
    assert field in str(err.value) and "finite" in str(err.value)


@pytest.mark.parametrize(
    "row, field",
    [
        ('1 0 0 2 2 9223372036854775808 0 0 0 "Biker"', "frame"),
        ('-9223372036854775809 0 0 2 2 7 0 0 0 "Biker"', "track_id"),
    ],
)
def test_parse_integer_outside_int64_names_field_and_line(row: str, field: str) -> None:
    rows = ['1 0 0 2 2 6 0 0 0 "Biker"', row]
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(rows, path="annotations.txt")
    assert "annotations.txt:2" in str(err.value)
    assert field in str(err.value) and "int64 range" in str(err.value)


def test_parse_unknown_label_lists_label_and_line() -> None:
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(['1 0 0 2 2 7 0 0 0 "Unicycle"'])
    msg = str(err.value)
    assert "Unicycle" in msg and ":1" in msg


def test_parse_unquoted_label_rejected() -> None:
    with pytest.raises(ParseError):
        parse_sdd_annotations(["1 0 0 2 2 7 0 0 0 Biker"])


def test_parse_flag_must_be_binary() -> None:
    with pytest.raises(ParseError):
        parse_sdd_annotations(['1 0 0 2 2 7 2 0 0 "Biker"'])


def test_parse_reports_a_bad_number_before_a_bad_flag() -> None:
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(['1 0 0 2 nope 7 2 0 0 "Biker"'])
    assert "'ymax'" in str(err.value)


def test_label_casing_normalized() -> None:
    (rec,) = parse_sdd_annotations(['1 0 0 2 2 7 0 0 0 "biker"'])
    assert rec["label"] == "Biker"


def test_parse_multiword_label() -> None:
    # SDD labels are single words, but the quoted field is the contract.
    (rec,) = parse_sdd_annotations(['1 0 0 2 2 7 0 1 0 "Cart"'])
    assert rec["label"] == "Cart" and rec["occluded"] == 1


def test_roundtrip_is_lossless() -> None:
    rows = [
        '5 100 200 140 260 37 1 0 0 "Pedestrian"',
        '6 -3 0 4 9 38 0 1 1 "Bus"',
    ]
    recs = parse_sdd_annotations(rows)
    again = parse_sdd_annotations([format_sdd_row(r) for r in recs])
    assert_same_records(again, recs)


def test_assemble_sorts_frames() -> None:
    recs = parse_sdd_annotations(
        ['1 0 0 2 2 10 0 0 0 "Biker"', '1 4 4 6 6 5 0 0 0 "Biker"']
    )
    (traj,) = assemble_trajectories(recs, SRC)
    assert traj.points["frame"].tolist() == [5, 10]
    assert traj.points[0]["x"] == 5.0 and traj.points[0]["y"] == 5.0


def test_assemble_centers_are_box_midpoints() -> None:
    recs = parse_sdd_annotations(['5 100 200 140 260 37 1 0 0 "Pedestrian"'])
    (traj,) = assemble_trajectories(recs, SRC)
    assert (traj.points[0]["x"], traj.points[0]["y"]) == (120.0, 230.0)


def test_assemble_groups_tracks() -> None:
    recs = parse_sdd_annotations(
        ['2 0 0 2 2 1 0 0 0 "Car"', '1 0 0 2 2 1 0 0 0 "Biker"']
    )
    trajs = assemble_trajectories(recs, SRC)
    assert [t.track_id for t in trajs] == [1, 2]
    assert [t.class_label for t in trajs] == ["Biker", "Car"]


def test_assemble_duplicate_frame_is_error() -> None:
    recs = parse_sdd_annotations(
        ['1 0 0 2 2 5 0 0 0 "Biker"', '1 4 4 6 6 5 0 0 0 "Biker"']
    )
    with pytest.raises(StructuralError):
        assemble_trajectories(recs, SRC)


def test_assemble_first_frame_label_wins_and_is_diagnosed() -> None:
    recs = parse_sdd_annotations(
        [
            '1 0 0 2 2 9 0 0 0 "Biker"',
            '1 0 0 2 2 4 0 0 0 "Pedestrian"',
            '1 0 0 2 2 11 0 0 0 "Biker"',
        ]
    )
    diag = IngestDiagnostics()
    (traj,) = assemble_trajectories(recs, SRC, diagnostics=diag)
    assert traj.class_label == "Pedestrian"
    assert diag.label_changes == {1: ["Pedestrian", "Biker"]}


def test_assemble_is_a_partition() -> None:
    rng = random.Random(7)
    rows = []
    used = set()
    for _ in range(300):
        tid = rng.randrange(12)
        frame = rng.randrange(500)
        if (tid, frame) in used:
            continue
        used.add((tid, frame))
        rows.append(f'{tid} 0 0 2 2 {frame} 0 0 0 "Pedestrian"')
    recs = parse_sdd_annotations(rows)
    trajs = assemble_trajectories(recs, SRC)
    assert sum(len(t) for t in trajs) == len(recs)
    seen = set()
    for t in trajs:
        for p in t.points:
            key = (t.track_id, p["frame"])
            assert key not in seen
            seen.add(key)


def test_assemble_flags_carried() -> None:
    recs = parse_sdd_annotations(['3 0 0 2 2 1 1 1 1 "Skater"'])
    (traj,) = assemble_trajectories(recs, SRC)
    p = traj.points[0]
    assert p["lost"] and p["occluded"] and p["generated"]


def check_against_oracle(rows: list[tuple]) -> None:
    recs = parse_sdd_annotations([sdd_line(row) for row in rows])
    want_diag, got_diag = IngestDiagnostics(), IngestDiagnostics()
    try:
        want = assemble_oracle(rows, SRC, want_diag)
    except StructuralError as err:
        with pytest.raises(StructuralError) as got_err:
            assemble_trajectories(recs, SRC, got_diag)
        assert str(got_err.value) == str(err)
        return
    got = assemble_trajectories(recs, SRC, got_diag)
    assert [(t.track_id, t.class_label, t.points.tolist()) for t in got] == want
    assert all(isinstance(t, Trajectory) and t.source == SRC for t in got)
    assert got_diag.to_dict() == want_diag.to_dict()


# Few track ids and frames, so ids repeat, frames arrive out of order and
# labels change mid-track.
oracle_rows = sdd_rows(st.integers(-2, 3), st.integers(-5, 60))


@settings(max_examples=200, deadline=None)
@given(st.lists(oracle_rows, max_size=40, unique_by=lambda row: (row[0], row[5])))
def test_assemble_matches_the_loop_oracle(rows: list[tuple]) -> None:
    check_against_oracle(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(oracle_rows, min_size=1, max_size=40), st.data())
def test_assemble_duplicate_frame_matches_the_loop_oracle(rows: list[tuple], data) -> None:
    victim = data.draw(st.sampled_from(rows))
    rows = rows + [data.draw(sdd_rows(st.just(victim[0]), st.just(victim[5])))]
    check_against_oracle(rows)


EXTREMES = [
    (2**62, -0.5, -1e-300, 3.25, 1e300, -(2**62), *combo, label.lower())
    for combo, label in zip(product((0, 1), repeat=3), ALL_CLASSES + ALL_CLASSES)
]


@settings(max_examples=150, deadline=None)
@given(st.lists(sdd_rows(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)), max_size=20))
@example(EXTREMES)
def test_format_parse_roundtrip(rows: list[tuple]) -> None:
    recs = parse_sdd_annotations([sdd_line(row) for row in rows])
    want = np.array(
        [(*row[:-1], canonical_class(row[-1])) for row in rows], dtype=RECORD_DTYPE
    )
    assert_same_records(recs, want)
    again = parse_sdd_annotations([format_sdd_row(rec) for rec in recs])
    assert_same_records(again, recs)
