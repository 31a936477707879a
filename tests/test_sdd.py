from __future__ import annotations

import io
import random
import warnings
from itertools import product
from math import isfinite

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli import write_sdd_tree
from trajscope import sdd
from trajscope.sdd import (
    RECORD_DTYPE,
    IngestDiagnostics,
    assemble_trajectories,
    parse_sdd_annotations,
)
from trajscope.types import (
    ALL_CLASSES,
    ConfigError,
    ParseError,
    SourceRef,
    StructuralError,
    ToolError,
    Trajectory,
    canonical_class,
)

SRC = SourceRef("sdd", "coupa", "video0")


def format_sdd_row(record: np.void) -> str:
    """Inverse of parse for one RECORD_DTYPE row (numeric formatting normalized)."""
    track_id, xmin, ymin, xmax, ymax, frame, lost, occluded, generated, label = record.item()

    def num(v: float) -> str:
        return str(int(v)) if v.is_integer() else repr(v)

    return (
        f"{track_id} {num(xmin)} {num(ymin)} {num(xmax)} {num(ymax)} {frame} "
        f'{lost} {occluded} {generated} "{label}"'
    )


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
        for (frame, x, y, *_), _ in members:
            if not (isfinite(x) and isfinite(y)):
                raise StructuralError(
                    f"track {tid} of {source.key()}: box center at frame {frame} is not finite"
                )
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


def records_of(rows: list[tuple]) -> np.ndarray:
    return np.array([(*row[:-1], canonical_class(row[-1])) for row in rows], dtype=RECORD_DTYPE)


def overflows(row: tuple) -> bool:
    """The box center of this row is not finite (the parser rejects such rows)."""
    return not (isfinite(row[1] + row[3]) and isfinite(row[2] + row[4]))


def check_against_oracle(rows: list[tuple]) -> None:
    # Built directly, not parsed: the parser rejects rows whose center overflows.
    recs = records_of(rows)
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
    if any(map(overflows, rows)):
        with pytest.raises(ParseError, match="center"):
            parse_sdd_annotations([sdd_line(row) for row in rows])
        return
    recs = parse_sdd_annotations([sdd_line(row) for row in rows])
    assert_same_records(recs, records_of(rows))
    again = parse_sdd_annotations([format_sdd_row(rec) for rec in recs])
    assert_same_records(again, recs)


@pytest.mark.parametrize(
    "row, fields",
    [
        ('1 1e308 0 1.5e308 2 7 0 0 0 "Biker"', "'xmin' and 'xmax'"),
        ('1 0 -1e308 2 -1e308 7 0 0 0 "Biker"', "'ymin' and 'ymax'"),
    ],
)
def test_parse_box_center_overflow_names_fields_and_line(row: str, fields: str) -> None:
    rows = ['1 0 0 2 2 6 0 0 0 "Biker"', row]
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(rows, path="annotations.txt")
    assert str(err.value).startswith(f"annotations.txt:2: the center of fields {fields} is not finite")


@pytest.mark.parametrize("field", ["x", "y"])
def test_assemble_rejects_a_center_that_overflows(field: str) -> None:
    recs = records_of([(4, 0.0, 0.0, 2.0, 2.0, 8, 0, 0, 0, "Car"), (4, 0.0, 0.0, 2.0, 2.0, 9, 0, 0, 0, "Car")])
    low, high = ("xmin", "xmax") if field == "x" else ("ymin", "ymax")
    recs[low][1] = recs[high][1] = 1.7e308
    with pytest.raises(StructuralError) as err:
        assemble_trajectories(recs, SRC)
    assert str(err.value) == f"track 4 of {SRC.key()}: box center at frame 9 is not finite"


# --- column reader against the per-row reader ------------------------------------


def _oracle_int(token: str, what: str, path: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"field {what!r} is not an integer: {token!r}", path, line_no) from None
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"field {what!r} is out of the int64 range: {token!r}", path, line_no)
    return value


def _oracle_float(token: str, what: str, path: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"field {what!r} is not numeric: {token!r}", path, line_no) from None
    if not isfinite(value):
        raise ParseError(f"field {what!r} is not finite: {token!r}", path, line_no)
    return value


def parse_oracle(source, path: str | None = None) -> np.ndarray:
    """The line-by-line parser, kept as the reference; the center check is its one addition."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as lines:  # closed on an error too
            return parse_oracle(lines, path or source)
    path = path or str(getattr(source, "name", "<input>"))
    records = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 10:
            raise ParseError(f"expected 10 fields, got {len(parts)}", path, line_no)
        quoted = parts[9]
        if len(quoted) < 2 or quoted[0] != '"' or quoted[-1] != '"':
            raise ParseError(f"label must be double-quoted, got {quoted!r}", path, line_no)
        label = canonical_class(quoted[1:-1])
        if label is None:
            raise ParseError(f"unknown class label {quoted[1:-1]!r}", path, line_no)
        record = (
            _oracle_int(parts[0], "track_id", path, line_no),
            _oracle_float(parts[1], "xmin", path, line_no),
            _oracle_float(parts[2], "ymin", path, line_no),
            _oracle_float(parts[3], "xmax", path, line_no),
            _oracle_float(parts[4], "ymax", path, line_no),
            _oracle_int(parts[5], "frame", path, line_no),
            parts[6] == "1",
            parts[7] == "1",
            parts[8] == "1",
            label,
        )
        for (a, b), names in (((1, 3), "'xmin' and 'xmax'"), ((2, 4), "'ymin' and 'ymax'")):
            if not isfinite(record[a] + record[b]):
                raise ParseError(
                    f"the center of fields {names} is not finite: {parts[a]!r}, {parts[b]!r}",
                    path,
                    line_no,
                )
        for what, token in zip(("lost", "occluded", "generated"), parts[6:9]):
            if token != "0" and token != "1":
                raise ParseError(f"field {what!r} must be 0 or 1, got {token!r}", path, line_no)
        records.append(record)
    return np.array(records, dtype=RECORD_DTYPE)


def outcome(parse, source):
    """The records a parse returns, or the type and text of its error."""
    try:
        return parse(source)
    except ToolError as err:
        return type(err), str(err)


def assemble_outcome(records):
    try:
        return [(t.track_id, t.class_label, t.points.tolist()) for t in assemble_trajectories(records, SRC)]
    except ToolError as err:
        return type(err), str(err)


def check_sources(text: str, directory) -> None:
    """A path, two streams and two line lists of `text` each parse as the oracle does."""
    path = directory / "annotations.txt"
    path.write_text(text, encoding="utf-8", newline="")
    sources = [
        lambda: str(path),
        lambda: io.StringIO(text),
        lambda: io.StringIO(text, newline=""),
        lambda: text.split("\n"),
        lambda: text.splitlines(keepends=True),
    ]
    for source in sources:
        want = outcome(parse_oracle, source())
        got = outcome(parse_sdd_annotations, source())
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, np.ndarray), got
            assert_same_records(got, want)
            assert assemble_outcome(got) == assemble_outcome(want)


SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003"]
# Drawn once per file, so that many files hold only what numpy's reader takes.
separator_sets = st.sampled_from([[" "], [" ", "\t", "  "], SEPARATORS])
line_end_sets = st.sampled_from([["\n"], ["\n", "\r\n", "\r"]])
blank_lines = st.sampled_from(["\n", "   \n", "\t\n", "\r\n"])

valid_ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(str), st.sampled_from(["+5", "007", "-0"])
)
valid_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["+5", "007", "1e3", ".5", "5.", "-0.0", "1E-3"]),
)
valid_flags = st.sampled_from(["0", "1"])
valid_labels = labels.map(lambda label: f'"{label}"')

any_ints = st.one_of(
    valid_ints,
    st.sampled_from(["1_000", "1e3", "7.0", "9223372036854775808", "-9223372036854775809", "nope", "٣", "0x10"]),
)
any_floats = st.one_of(
    valid_floats,
    st.sampled_from(["1_000", "1e400", "-1e400", "nan", "inf", "-Infinity", "0x10", "1e308", "nope", "1,5"]),
)
any_flags = st.sampled_from(["0", "1", "00", "+0", "2", "01", "-0", "0\x00", "1.0", "#"])
any_labels = st.one_of(
    valid_labels,
    st.sampled_from(
        ['"Pedestrian"x', '"Pedestrian""', '"TruckBus"xy', '"Unicycle"', "Biker", '"Bi#ker"',
         '"Biker', 'Biker"', '"', '""', '"BIKER"', '"Bik\xe9r"', '"Biker\x00"', '#"Biker"']
    ),
)


@st.composite
def sdd_texts(draw, valid: bool) -> str:
    ints, floats_, flags_, labels_ = (
        (valid_ints, valid_floats, valid_flags, valid_labels)
        if valid
        else (any_ints, any_floats, any_flags, any_labels)
    )
    separators = st.sampled_from(draw(separator_sets))
    line_ends = st.sampled_from(draw(line_end_sets))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(blank_lines))
            continue
        fields = [draw(ints), *(draw(floats_) for _ in range(4)), draw(ints)]
        fields += [draw(flags_) for _ in range(3)] + [draw(labels_)]
        if not valid:
            change = draw(st.sampled_from([None, None, None, "drop", "#note", "x"]))
            if change == "drop":
                del fields[draw(st.integers(0, 9))]
            elif change is not None:
                fields.append(change)
        lines.append(draw(separators).join(fields) + draw(line_ends))
    text = "".join(lines)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


@settings(max_examples=150, deadline=None)
@given(sdd_texts(valid=True))
def test_valid_text_parses_as_the_row_loop(tmp_path_factory, text: str) -> None:
    check_sources(text, tmp_path_factory.mktemp("sdd"))


@settings(max_examples=300, deadline=None)
@given(sdd_texts(valid=False))
def test_any_text_parses_or_fails_as_the_row_loop(tmp_path_factory, text: str) -> None:
    check_sources(text, tmp_path_factory.mktemp("sdd"))


GOOD = '1 0 0 2 2 7 0 0 0 "Biker"'

# Inputs where numpy's reader and the row loop could disagree.
DIVERGENCES = [
    *(GOOD.replace(" ", sep) + "\n" for sep in SEPARATORS),
    GOOD.replace("7 0 0", "7 1\x0b0 0") + "\n",
    GOOD.replace("7 0 0", "7 1\xa00 0") + "\n",
    GOOD + "\r\n" + GOOD + "\r\n",
    GOOD + "\r" + GOOD + "\r",
    GOOD + "\n   \n\t\n" + GOOD + "\n",
    GOOD.replace('"Biker"', '"Bi#ker"') + "\n",
    GOOD + " #note\n",
    "# comment\n" + GOOD + "\n",
    GOOD.replace(" 7 ", " ") + "\n",
    GOOD + " x\n",
    GOOD.replace('"Biker"', '"Pedestrian"x') + "\n",
    GOOD.replace('"Biker"', '"TruckBus"xyz') + "\n",
    GOOD.replace('"Biker"', "Biker") + "\n",
    GOOD.replace('"Biker"', '"Unicycle"') + "\n",
    GOOD.replace('"Biker"', '"Bik\xe9r"') + "\n",
    GOOD.replace("7 0 0 0", "7 00 0 0") + "\n",
    GOOD.replace("7 0 0 0", "7 +0 0 0") + "\n",
    GOOD.replace("7 0 0 0", "7 2 0 0") + "\n",
    GOOD.replace("7 0 0 0", "7 0\x00 0 0") + "\n",
    GOOD.replace("1 0 0", "1_000 0 0", 1) + "\n",
    GOOD.replace("1 0 0", "+5 0 0", 1) + "\n",
    GOOD.replace("1 0 0", "007 0 0", 1) + "\n",
    GOOD.replace("1 0 0", "1e3 0 0", 1) + "\n",
    GOOD.replace("1 0 0 2", "1 1e3 0 2") + "\n",
    GOOD.replace("1 0 0 2", "1 1e400 0 2") + "\n",
    GOOD.replace("1 0 0 2 2", "1 1e308 0 1e308 2") + "\n",
    "",
    "\n \n",
]


@pytest.mark.parametrize("text", DIVERGENCES)
def test_divergent_text_parses_as_the_row_loop(tmp_path, text: str) -> None:
    check_sources(text, tmp_path)


def test_line_break_inside_a_list_element_is_one_row() -> None:
    lines = [GOOD + "\n" + GOOD, GOOD]
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(lines)
    assert str(err.value) == str(outcome(parse_oracle, lines)[1])
    assert str(err.value) == "<input>:1: expected 10 fields, got 20"


def large_file(bad_row: str | None = None, line_no: int = 4321, n: int = 5000) -> list[str]:
    """`n` valid rows over 50 tracks; `bad_row`, if given, at 1-based `line_no`."""
    rows = [
        f'{i % 50} {i % 7} {i % 11}.5 {i % 7 + 30} {i % 11 + 40}.25 {i} {i % 2} {i % 3 // 2} 0 '
        f'"{ALL_CLASSES[i % 50 % len(ALL_CLASSES)].lower()}"'
        for i in range(n)
    ]
    if bad_row is not None:
        rows[line_no - 1] = bad_row
    return rows


def test_a_large_valid_file_never_reaches_the_row_loop(tmp_path, monkeypatch) -> None:
    rows = large_file()
    path = tmp_path / "annotations.txt"
    path.write_text("\n".join(rows) + "\n")
    want = parse_oracle(rows)
    monkeypatch.setattr(sdd, "_parse_rows", None)
    assert_same_records(parse_sdd_annotations(path), want)
    assert_same_records(parse_sdd_annotations(rows), want)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_carriage_return_line_ends_stay_on_the_column_path(tmp_path, monkeypatch, end) -> None:
    rows = large_file()
    path = tmp_path / "annotations.txt"
    path.write_bytes((end.join(rows) + end).encode())
    want = parse_oracle(str(path))
    monkeypatch.setattr(sdd, "_parse_rows", None)
    assert_same_records(parse_sdd_annotations(path), want)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_error_in_a_carriage_return_file_names_its_line(tmp_path, end) -> None:
    rows = large_file('1 0 0 2 2 7 2 0 0 "Biker"')
    path = tmp_path / "annotations.txt"
    path.write_bytes((end.join(rows) + end).encode())
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(path)
    assert str(err.value) == f"{path}:4321: field 'lost' must be 0 or 1, got '2'"
    assert str(err.value) == str(outcome(parse_oracle, str(path))[1])


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ('1 0 0 2 nope 7 0 0 0 "Biker"', "field 'ymax' is not numeric: 'nope'"),
        ('1 0 0 2 inf 7 0 0 0 "Biker"', "field 'ymax' is not finite: 'inf'"),
        ('1 0 0 2 2 9223372036854775808 0 0 0 "Biker"', "field 'frame' is out of the int64 range"),
        ('1 0 0 2 2 7.0 0 0 0 "Biker"', "field 'frame' is not an integer: '7.0'"),
        ('1 0 0 2 2 7 2 0 0 "Biker"', "field 'lost' must be 0 or 1, got '2'"),
        ('1 0 0 2 2 7 0 00 0 "Biker"', "field 'occluded' must be 0 or 1, got '00'"),
        ('1 0 0 2 2 7 0 0 +0 "Biker"', "field 'generated' must be 0 or 1, got '+0'"),
        ('1 0 0 2 2 7 0\x00 0 0 "Biker"', "field 'lost' must be 0 or 1, got '0\\x00'"),
        ('1 0 0 2 2 7 0 0 0 "Unicycle"', "unknown class label 'Unicycle'"),
        ('1 0 0 2 2 7 0 0 0 "Pedestrian"x', "label must be double-quoted, got '\"Pedestrian\"x'"),
        ('1 0 0 2 2 7 0 0 0 Biker', "label must be double-quoted, got 'Biker'"),
        ('1 0 0 2 2 7 0 0 "Biker"', "expected 10 fields, got 9"),
        ('1 0 0 2 2 7 0 0 0 "Biker" #note', "expected 10 fields, got 11"),
        ("# a comment line", "expected 10 fields, got 4"),
        ('1 1e308 0 1e308 2 7 0 0 0 "Biker"', "the center of fields 'xmin' and 'xmax' is not finite"),
        ('1 0 -1e308 2 -1e308 7 0 0 0 "Biker"', "the center of fields 'ymin' and 'ymax' is not finite"),
    ],
)
def test_error_in_a_large_file_names_its_line(tmp_path, bad_row: str, message: str) -> None:
    rows = large_file(bad_row)
    path = tmp_path / "annotations.txt"
    path.write_text("\n".join(rows) + "\n")
    for source, oracle_source in ((path, str(path)), (rows, rows)):
        with pytest.raises(ParseError) as err:
            parse_sdd_annotations(source, path="annotations.txt")
        assert str(err.value).startswith(f"annotations.txt:4321: {message}")
        with pytest.raises(ParseError) as want:
            parse_oracle(oracle_source, path="annotations.txt")
        assert str(err.value) == str(want.value)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"])
def test_empty_file_parses_without_warnings(tmp_path, text: str) -> None:
    path = tmp_path / "annotations.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (path, io.StringIO(text), text.splitlines()):
            records = parse_sdd_annotations(source)
            assert records.dtype == RECORD_DTYPE and len(records) == 0


def test_non_utf8_file_is_parse_error_naming_its_line(tmp_path) -> None:
    path = tmp_path / "annotations.txt"
    path.write_bytes(b'1 0 0 2 2 0 0 0 0 "Biker"\r\n1 0 0 2 2 1 0 0 0 "Bik\xffer"\r\n')
    with pytest.raises(ParseError) as err:
        parse_sdd_annotations(path)
    assert str(err.value) == f"{path}:2: not valid UTF-8 (byte 0xff)"


def test_read_videos_parses_one_file_per_video_as_each_is_asked_for(tmp_path, monkeypatch) -> None:
    root = write_sdd_tree(tmp_path / "a")
    parsed = []
    parse = sdd.parse_sdd_annotations
    monkeypatch.setattr(sdd, "parse_sdd_annotations", lambda path: parsed.append(path) or parse(path))
    videos = sdd.read_videos([root])
    assert parsed == []
    for video in ("video0", "video1"):
        trajectories, diagnostics = next(videos)
        assert parsed[-1] == root / "quad" / video / "annotations.txt"
        assert {t.source.key() for t in trajectories} == {("sdd", "quad", video)}
        assert diagnostics["tracks"] == len(trajectories)
    assert next(videos, None) is None
    assert len(parsed) == 2

    # every file is claimed before the first is read
    other = write_sdd_tree(tmp_path / "b")
    with pytest.raises(ConfigError) as err:
        sdd.read_videos([root, other])
    first, second = (tree / "quad" / "video0" / "annotations.txt" for tree in (root, other))
    assert str(err.value) == f"two input files for video quad/video0: {first} and {second}"
    assert len(parsed) == 2
