from __future__ import annotations

import random

import pytest

from trajscope.sdd import (
    IngestDiagnostics,
    assemble_trajectories,
    format_sdd_row,
    parse_sdd_annotations,
)
from trajscope.types import ParseError, SourceRef, StructuralError

SRC = SourceRef("sdd", "coupa", "video0")


def test_parse_single_row() -> None:
    rows = ['5 100 200 140 260 37 1 0 0 "Pedestrian"']
    (rec,) = parse_sdd_annotations(rows)
    assert rec.track_id == 5
    assert (rec.xmin, rec.ymin, rec.xmax, rec.ymax) == (100.0, 200.0, 140.0, 260.0)
    assert rec.frame == 37
    assert rec.lost is True
    assert rec.occluded is False
    assert rec.generated is False
    assert rec.label == "Pedestrian"
    assert rec.center == (120.0, 230.0)


def test_parse_empty_input() -> None:
    assert parse_sdd_annotations([]) == []
    assert parse_sdd_annotations(["", "   "]) == []


def test_parse_preserves_row_order() -> None:
    rows = [
        '1 0 0 2 2 7 0 0 0 "Biker"',
        '0 0 0 2 2 3 0 0 0 "Pedestrian"',
    ]
    recs = parse_sdd_annotations(rows)
    assert [r.frame for r in recs] == [7, 3]


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


def test_label_casing_normalized() -> None:
    (rec,) = parse_sdd_annotations(['1 0 0 2 2 7 0 0 0 "biker"'])
    assert rec.label == "Biker"


def test_parse_multiword_label() -> None:
    # SDD labels are single words, but the quoted field is the contract.
    (rec,) = parse_sdd_annotations(['1 0 0 2 2 7 0 1 0 "Cart"'])
    assert rec.label == "Cart" and rec.occluded is True


def test_roundtrip_is_lossless() -> None:
    rows = [
        '5 100 200 140 260 37 1 0 0 "Pedestrian"',
        '6 -3 0 4 9 38 0 1 1 "Bus"',
    ]
    recs = parse_sdd_annotations(rows)
    again = parse_sdd_annotations([format_sdd_row(r) for r in recs])
    assert again == recs


def test_assemble_sorts_frames() -> None:
    recs = parse_sdd_annotations(
        ['1 0 0 2 2 10 0 0 0 "Biker"', '1 4 4 6 6 5 0 0 0 "Biker"']
    )
    (traj,) = assemble_trajectories(recs, SRC)
    assert traj.points["frame"].tolist() == [5, 10]
    assert traj.points[0]["x"] == 5.0 and traj.points[0]["y"] == 5.0


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
