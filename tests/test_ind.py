from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajscope import ind
from trajscope.ind import IND_CLASS_MAP, meters_to_pixels, parse_ind_tracks, pixels_to_meters
from trajscope.types import POINT_DTYPE, ConfigError, ParseError, SourceRef, StructuralError, ToolError, Trajectory

TRACKS_HEADER = "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,heading\n"
META_HEADER = "recordingId,trackId,initialFrame,finalFrame,numFrames,class\n"
REC_HEADER = "recordingId,locationId,frameRate,orthoPxToMeter\n"


def build(tracks_rows, meta_rows, factor=0.01, location=1):
    tracks = io.StringIO(TRACKS_HEADER + "".join(tracks_rows))
    meta = io.StringIO(META_HEADER + "".join(meta_rows))
    rec = io.StringIO(REC_HEADER + f"7,{location},25.0,{factor}\n")
    return tracks, meta, rec


def test_meter_to_pixel_conversion() -> None:
    tracks, meta, rec = build(
        ["7,0,0,0,1.0,-1.0,0.0\n"],
        ["7,0,0,0,1,pedestrian\n"],
        factor=0.01,
    )
    (traj,) = parse_ind_tracks(tracks, meta, rec)
    (p,) = traj.points
    assert p["x"] == pytest.approx(100.0, abs=1e-12)
    assert p["y"] == pytest.approx(100.0, abs=1e-12)


def test_conversion_roundtrip() -> None:
    for xm, ym in [(1.234, -5.678), (-0.003, 14.25), (0.0, 0.0)]:
        xp, yp = meters_to_pixels(xm, ym, 0.0084)
        xb, yb = pixels_to_meters(xp, yp, 0.0084)
        assert xb == pytest.approx(xm, abs=1e-9)
        assert yb == pytest.approx(ym, abs=1e-9)


def test_class_mapping() -> None:
    tracks, meta, rec = build(
        [
            "7,0,0,0,1,1,0\n",
            "7,1,0,0,1,1,0\n",
            "7,2,0,0,1,1,0\n",
            "7,3,0,0,1,1,0\n",
        ],
        [
            "7,0,0,0,1,pedestrian\n",
            "7,1,0,0,1,bicycle\n",
            "7,2,0,0,1,car\n",
            "7,3,0,0,1,truck_bus\n",
        ],
    )
    trajs = parse_ind_tracks(tracks, meta, rec)
    assert [t.class_label for t in trajs] == ["Pedestrian", "Biker", "Car", "TruckBus"]


def write_recording(root, tracks_rows, meta_rows, recording_id="7"):
    paths = [root / f"07_{kind}.csv" for kind in ("tracks", "tracksMeta", "recordingMeta")]
    paths[0].write_text(TRACKS_HEADER + "".join(tracks_rows))
    paths[1].write_text(META_HEADER + "".join(meta_rows))
    paths[2].write_text(REC_HEADER + f"{recording_id},1,25.0,0.01\n")
    return paths


@pytest.mark.parametrize(
    "row, column, reason",
    [
        ("7,0,1,0,nan,1,0\n", "xCenter", "finite"),
        ("7,0,1,0,1,-inf,0\n", "yCenter", "finite"),
        ("7,0,3.7,0,1,1,0\n", "frame", "integer"),
        ("7,0,inf,0,1,1,0\n", "frame", "integer"),
        ("7,nan,1,0,1,1,0\n", "trackId", "integer"),
        ("7,0,1e30,0,1,1,0\n", "frame", "int64 range"),
        ("7,9223372036854775808,1,0,1,1,0\n", "trackId", "int64 range"),
    ],
)
def test_non_finite_or_non_integral_value_names_file_and_line(tmp_path, row, column, reason) -> None:
    paths = write_recording(tmp_path, ["7,0,0,0,1,1,0\n", row], ["7,0,0,1,2,car\n"])
    with pytest.raises(ParseError) as err:
        parse_ind_tracks(*paths)
    message = str(err.value)
    assert "07_tracks.csv:3" in message
    assert column in message and reason in message


def test_non_integral_recording_id_is_parse_error(tmp_path) -> None:
    # int(float("inf")) used to escape as an OverflowError
    paths = write_recording(tmp_path, ["7,0,0,0,1,1,0\n"], ["7,0,0,0,1,car\n"], "inf")
    with pytest.raises(ParseError) as err:
        parse_ind_tracks(*paths)
    assert "07_recordingMeta.csv:2" in str(err.value)


def test_integral_decimals_accepted() -> None:
    tracks, meta, rec = build(["7,0,0.0,0,1,1,0\n", "7,0,1.0,0,1,1,0\n"], ["7,0,0,1,2.0,car\n"])
    (traj,) = parse_ind_tracks(tracks, meta, rec)
    assert traj.points["frame"].tolist() == [0, 1]


def test_unknown_class_rejected() -> None:
    tracks, meta, rec = build(["7,0,0,0,1,1,0\n"], ["7,0,0,0,1,tram\n"])
    with pytest.raises(ParseError) as err:
        parse_ind_tracks(tracks, meta, rec)
    assert "tram" in str(err.value)


def test_missing_meta_row() -> None:
    tracks, meta, rec = build(["7,0,0,0,1,1,0\n", "7,1,0,0,1,1,0\n"], ["7,0,0,0,1,car\n"])
    with pytest.raises(StructuralError) as err:
        parse_ind_tracks(tracks, meta, rec)
    assert "1" in str(err.value)


def test_nonpositive_factor() -> None:
    tracks, meta, rec = build(["7,0,0,0,1,1,0\n"], ["7,0,0,0,1,car\n"], factor=0.0)
    with pytest.raises(StructuralError):
        parse_ind_tracks(tracks, meta, rec)


def test_frame_gap_is_structural_error() -> None:
    tracks, meta, rec = build(
        ["7,0,0,0,1,1,0\n", "7,0,2,0,1,1,0\n"],
        ["7,0,0,2,2,car\n"],
    )
    with pytest.raises(StructuralError) as err:
        parse_ind_tracks(tracks, meta, rec)
    assert "track 0" in str(err.value)


def test_numframes_crosscheck() -> None:
    tracks, meta, rec = build(
        ["7,0,0,0,1,1,0\n", "7,0,1,0,1,1,0\n"],
        ["7,0,0,1,3,car\n"],
    )
    with pytest.raises(StructuralError) as err:
        parse_ind_tracks(tracks, meta, rec)
    assert "numFrames" in str(err.value)


def test_rows_sorted_and_flags_false() -> None:
    tracks, meta, rec = build(
        ["7,0,1,0,2.0,-2.0,0\n", "7,0,0,0,1.0,-1.0,0\n"],
        ["7,0,0,1,2,pedestrian\n"],
    )
    (traj,) = parse_ind_tracks(tracks, meta, rec)
    assert traj.points["frame"].tolist() == [0, 1]
    assert all(not (p["lost"] or p["occluded"] or p["generated"]) for p in traj.points)
    assert traj.source.dataset == "ind"
    assert traj.source.scene == "location1"
    assert traj.source.video == "7"


def test_duplicate_frame_rejected() -> None:
    tracks, meta, rec = build(
        ["7,0,0,0,1,1,0\n", "7,0,0,0,1,1,0\n"],
        ["7,0,0,0,2,car\n"],
    )
    with pytest.raises(StructuralError):
        parse_ind_tracks(tracks, meta, rec)


def test_missing_column_is_parse_error() -> None:
    tracks = io.StringIO("recordingId,trackId,frame\n7,0,0\n")
    meta = io.StringIO(META_HEADER + "7,0,0,0,1,car\n")
    rec = io.StringIO(REC_HEADER + "7,1,25.0,0.01\n")
    with pytest.raises(ParseError) as err:
        parse_ind_tracks(tracks, meta, rec)
    assert "xCenter" in str(err.value)


# --- column reader against the per-row reader ------------------------------------


def _oracle_open(source):
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.open("r", encoding="utf-8", newline=""), str(path), True
    return source, str(getattr(source, "name", "<input>")), False


def _oracle_reader(source, required):
    stream, path, owned = _oracle_open(source)
    reader = csv.DictReader(stream)
    fields = reader.fieldnames or []
    missing = [c for c in required if c not in fields]
    if missing:
        if owned:
            stream.close()
        raise ParseError(f"missing required column(s) {', '.join(missing)}", path, 1)
    return reader, stream, path, owned


def _oracle_float(row, col, path, line_no):
    try:
        value = float(row[col])
    except (TypeError, ValueError):
        raise ParseError(f"column {col!r} is not numeric: {row.get(col)!r}", path, line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"column {col!r} is not finite: {row[col]!r}", path, line_no)
    return value


def _oracle_int(row, col, path, line_no):
    raw = row.get(col)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        try:
            number = float(raw)
        except (TypeError, ValueError):
            number = math.nan
        if not number.is_integer():
            raise ParseError(f"column {col!r} is not an integer: {raw!r}", path, line_no)
        value = int(number)
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"column {col!r} is out of the int64 range: {raw!r}", path, line_no)
    return value


def ind_oracle(tracks, tracks_meta, recording_meta) -> list[Trajectory]:
    """The parser with a csv loop over every tracks row, kept as the reference."""
    rec_reader, rec_stream, rec_path, rec_owned = _oracle_reader(
        recording_meta, ["recordingId", "orthoPxToMeter"]
    )
    try:
        rec_rows = list(rec_reader)
        if len(rec_rows) != 1:
            raise StructuralError(f"{rec_path}: expected exactly one recording row, got {len(rec_rows)}")
        rec_row = rec_rows[0]
        factor = _oracle_float(rec_row, "orthoPxToMeter", rec_path, 2)
        if factor <= 0:
            raise StructuralError(f"{rec_path}: orthoPxToMeter must be positive, got {factor}")
        recording_id = str(_oracle_int(rec_row, "recordingId", rec_path, 2))
        location = rec_row.get("locationId", "").strip() or "?"
    finally:
        if rec_owned:
            rec_stream.close()
    source = SourceRef(dataset="ind", scene=f"location{location}", video=recording_id)

    meta_reader, meta_stream, meta_path, meta_owned = _oracle_reader(
        tracks_meta, ["trackId", "numFrames", "class"]
    )
    classes, num_frames = {}, {}
    try:
        for row in meta_reader:
            line_no = meta_reader.line_num
            track_id = _oracle_int(row, "trackId", meta_path, line_no)
            raw_class = (row["class"] or "").strip().lower()
            mapped = IND_CLASS_MAP.get(raw_class)
            if mapped is None:
                raise ParseError(f"unknown class {raw_class!r} for track {track_id}", meta_path, line_no)
            classes[track_id] = mapped
            num_frames[track_id] = _oracle_int(row, "numFrames", meta_path, line_no)
    finally:
        if meta_owned:
            meta_stream.close()

    tracks_reader, tracks_stream, tracks_path, tracks_owned = _oracle_reader(
        tracks, ["trackId", "frame", "xCenter", "yCenter"]
    )
    track_col, frame_col, x_m, y_m = [], [], [], []
    try:
        for row in tracks_reader:
            line_no = tracks_reader.line_num
            track_id = _oracle_int(row, "trackId", tracks_path, line_no)
            if track_id not in classes:
                raise StructuralError(f"{tracks_path}: track {track_id} has no row in {meta_path}")
            track_col.append(track_id)
            frame_col.append(_oracle_int(row, "frame", tracks_path, line_no))
            x_m.append(_oracle_float(row, "xCenter", tracks_path, line_no))
            y_m.append(_oracle_float(row, "yCenter", tracks_path, line_no))
    finally:
        if tracks_owned:
            tracks_stream.close()

    trajectories = []
    for track_id in sorted(set(track_col)):
        rows = sorted((f, x, y) for t, f, x, y in zip(track_col, frame_col, x_m, y_m) if t == track_id)
        for (a, _, _), (b, _, _) in zip(rows, rows[1:]):
            if a == b:
                raise StructuralError(f"track {track_id} of {source.key()}: duplicate frame {a}")
            if b != a + 1:
                raise StructuralError(f"track {track_id} of {source.key()}: frame gap between {a} and {b}")
        if len(rows) != num_frames[track_id]:
            raise StructuralError(
                f"track {track_id} of {source.key()}: numFrames says {num_frames[track_id]}, file has {len(rows)} rows"
            )
        points = np.zeros(len(rows), POINT_DTYPE)
        points["frame"] = [f for f, _, _ in rows]
        points["x"] = [x / factor for _, x, _ in rows]
        points["y"] = [-y / factor for _, _, y in rows]
        trajectories.append(Trajectory(track_id, classes[track_id], points, source))
    return trajectories


def ind_outcome(parse, *sources):
    try:
        return [(t.track_id, t.class_label, t.source, t.points.tolist()) for t in parse(*sources)]
    except ToolError as err:
        return type(err), str(err)


def check_ind_sources(tracks_text: str, meta_text: str, directory) -> None:
    """The tracks text as a path and as a stream parses as the oracle does."""
    paths = [directory / f"07_{kind}.csv" for kind in ("tracks", "tracksMeta", "recordingMeta")]
    paths[0].write_text(tracks_text, encoding="utf-8", newline="")
    paths[1].write_text(meta_text, encoding="utf-8", newline="")
    paths[2].write_text(REC_HEADER + "7,1,25.0,0.01\n")
    want = ind_outcome(ind_oracle, *paths)
    assert ind_outcome(parse_ind_tracks, *paths) == want

    def streams():
        return (
            io.StringIO(tracks_text, newline=""),
            io.StringIO(meta_text, newline=""),
            io.StringIO(paths[2].read_text()),
        )

    assert ind_outcome(parse_ind_tracks, *streams()) == ind_outcome(ind_oracle, *streams())


COLUMNS = TRACKS_HEADER.strip().split(",")


def quoted(token: str) -> str:
    return f'"{token}"'


INT_FORMATS = [str, lambda v: f"+{v}" if v >= 0 else str(v), quoted, lambda v: f" {v} "]
# Drawn once per file, so that many files hold only what numpy's reader takes ("3.0" is not).
int_format_sets = st.sampled_from([[str], INT_FORMATS, INT_FORMATS + [lambda v: f"{v}.0"]])
valid_float_formats = st.sampled_from([repr, lambda v: f"{v:.5f}", quoted, lambda v: f"{v:e}", lambda v: f" {v!r}"])
bad_tokens = st.sampled_from(["nan", "inf", "-inf", "1e400", "", "abc", "1_0", "3.7", '"5', '5"', '"5"x',
                              "9223372036854775808", "٣", "#5", " "])


@st.composite
def ind_files(draw, valid: bool) -> tuple[str, str]:
    """A tracks file and its tracksMeta file."""
    columns = draw(st.permutations(COLUMNS))
    if draw(st.integers(0, 3)) == 0:
        columns.append(draw(st.sampled_from(["extra", "heading", "frame", "xCenter"])))
    header = ",".join(quoted(c) if draw(st.integers(0, 5)) == 0 else c for c in columns)
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lengths = draw(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    valid_int_formats = st.sampled_from(draw(int_format_sets))
    rows, meta = [], []
    for track_id, length in enumerate(lengths):
        first = draw(st.integers(0, 5))
        numframes = length if valid or draw(st.integers(0, 5)) else length + 1
        if valid or draw(st.integers(0, 7)):
            meta.append(f"7,{track_id},{first},{first + length - 1},{numframes},car\n")
        for frame in range(first, first + length):
            x = draw(st.floats(-1e6, 1e6, allow_nan=False))
            values = {"recordingId": 7, "trackId": track_id, "frame": frame, "trackLifetime": frame - first,
                      "xCenter": x, "yCenter": -x / 3, "heading": 0.0, "extra": "a#b"}
            fields = []
            for c in columns:
                value = values[c]
                if not valid and draw(st.integers(0, 15)) == 0:
                    fields.append(draw(bad_tokens))
                elif isinstance(value, int):
                    fields.append(draw(valid_int_formats)(value))
                elif isinstance(value, float):
                    fields.append(draw(valid_float_formats)(value))
                else:
                    fields.append(value)
            if not valid:
                change = draw(st.sampled_from([None] * 6 + ["drop", "add", "commas", "blank", "space"]))
                if change == "drop":
                    fields.pop()
                elif change == "add":
                    fields.append("1")
                elif change == "commas":
                    fields = [""] * len(fields)
                elif change in ("blank", "space"):
                    fields = ["" if change == "blank" else " "]
            rows.append(",".join(fields))
    rows = draw(st.permutations(rows))
    return header + end + "".join(row + end for row in rows), META_HEADER + "".join(meta)


@settings(max_examples=150, deadline=None)
@given(ind_files(valid=True))
def test_valid_tracks_parse_as_the_row_loop(tmp_path_factory, files) -> None:
    check_ind_sources(*files, tmp_path_factory.mktemp("ind"))


@settings(max_examples=300, deadline=None)
@given(ind_files(valid=False))
def test_any_tracks_parse_or_fail_as_the_row_loop(tmp_path_factory, files) -> None:
    check_ind_sources(*files, tmp_path_factory.mktemp("ind"))


META = META_HEADER + "7,0,0,1,2,car\n"

# Inputs where numpy's reader and the csv loop could disagree.
IND_DIVERGENCES = [
    TRACKS_HEADER + "7,3.0,0,0,1,1,0\n7,0,1.0,0,1,1,0\n".replace("3.0", "0.0"),
    TRACKS_HEADER + '7,"0","0",0,"1.5","-2",0\n7,0,1,0," 1 ",1,0\n',
    TRACKS_HEADER + "7,0,0,0,1,1,0,9,9\n7,0,1,0,1,1\n",
    TRACKS_HEADER + "7,0,0,0,1,1\n7,0,1,0,1\n",
    "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,frame\n7,0,0,0,1,1,5\n7,0,1,0,1,1,6\n",
    "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,trackId\n7,0,0,0,1,1,0\n7,0,1,0,1,1,0\n",
    TRACKS_HEADER + "7,0,0,0,1,1,0\n,,,,\n7,0,1,0,1,1,0\n",
    TRACKS_HEADER + "7,0,0,0,1,1,0\n   \n7,0,1,0,1,1,0\n",
    TRACKS_HEADER + "7,0,0,0,1,1,0\n\n7,0,1,0,1,1,0\n",
    TRACKS_HEADER + "7,0,0,0,1,1#5,0\n7,0,1,0,1,1,0\n",
    TRACKS_HEADER + "#7,0,0,0,1,1,0\n7,0,1,0,1,1,0\n",
    TRACKS_HEADER + "7,0,0,0,1_0,1,0\n7,0,1,0,1e400,1,0\n",
    TRACKS_HEADER.replace("\n", "\r\n") + "7,0,0,0,1,1,0\r\n7,0,1,0,1,1,0\r\n",
    TRACKS_HEADER.replace("\n", "\r") + "7,0,0,0,1,1,0\r7,0,1,0,1,1,0\r",
    TRACKS_HEADER + '7,0,0,0,1,1,"a\nb"\n7,0,1,0,1,1,0\n',
    TRACKS_HEADER + '7,0,0,0,1,1,"0\n7,0,1,0,1,1,0\n',
    TRACKS_HEADER + "7,1,0,0,1,1,0\n7,0,0,0,1,1,0\n",
    TRACKS_HEADER,
]


@pytest.mark.parametrize("tracks_text", IND_DIVERGENCES)
def test_divergent_tracks_parse_as_the_row_loop(tmp_path, tracks_text: str) -> None:
    check_ind_sources(tracks_text, META, tmp_path)


def large_recording(root, bad_row: str | None = None, line_no: int = 4321, n: int = 5000):
    """`n` tracks rows, 50 tracks of 100 frames; `bad_row` at 1-based `line_no` (the header is 1)."""
    rows = [f"7,{i // 100},{i % 100},{i % 100},{i * 0.25:.5f},{-i * 0.5:.5f},0.0\n" for i in range(n)]
    if bad_row is not None:
        rows[line_no - 2] = bad_row
    meta = [f"7,{t},0,99,100,pedestrian\n" for t in range(n // 100)]
    return write_recording(root, rows, meta)


def test_large_valid_tracks_never_reach_the_row_loop(tmp_path, monkeypatch) -> None:
    paths = large_recording(tmp_path)
    want = ind_outcome(ind_oracle, *paths)
    monkeypatch.setattr(ind, "_read_track_rows", None)
    assert ind_outcome(parse_ind_tracks, *paths) == want
    assert len(want) == 50


@pytest.mark.parametrize(
    "bad_row, error, message",
    [
        ("7,43,20,20,abc,1,0\n", ParseError, "07_tracks.csv:4321: column 'xCenter' is not numeric: 'abc'"),
        ("7,43,20,20,1,inf,0\n", ParseError, "07_tracks.csv:4321: column 'yCenter' is not finite: 'inf'"),
        ("7,43,20.5,20,1,1,0\n", ParseError, "07_tracks.csv:4321: column 'frame' is not an integer: '20.5'"),
        ("7,43\n", ParseError, "07_tracks.csv:4321: column 'frame' is not an integer: None"),
        (",,,,\n", ParseError, "07_tracks.csv:4321: column 'trackId' is not an integer: ''"),
        ("7,4#3,20,20,1,1,0\n", ParseError, "07_tracks.csv:4321: column 'trackId' is not an integer: '4#3'"),
        ("7,99,20,20,1,1,0\n", StructuralError, "07_tracks.csv: track 99 has no row in"),
    ],
)
def test_error_in_large_tracks_names_its_line(tmp_path, bad_row: str, error, message: str) -> None:
    paths = large_recording(tmp_path, bad_row)
    with pytest.raises(error) as err:
        parse_ind_tracks(*paths)
    assert message in str(err.value)
    assert ind_outcome(ind_oracle, *paths) == (error, str(err.value))


def test_unknown_track_named_first_in_row_order(tmp_path) -> None:
    paths = large_recording(tmp_path, "7,98,20,20,1,1,0\n", line_no=4000)
    rows = paths[0].read_text().splitlines(keepends=True)
    rows[4500] = "7,97,20,20,1,1,0\n"
    paths[0].write_text("".join(rows))
    with pytest.raises(StructuralError) as err:
        parse_ind_tracks(*paths)
    assert str(err.value) == f"{paths[0]}: track 98 has no row in {paths[1]}"


def test_header_only_tracks_parse_without_warnings(tmp_path) -> None:
    paths = write_recording(tmp_path, [], ["7,0,0,0,1,car\n"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_ind_tracks(*paths) == []
        assert parse_ind_tracks(*build([], ["7,0,0,0,1,car\n"])) == []


@pytest.mark.parametrize("kind, line_no", [("tracks", 3), ("tracksMeta", 2), ("recordingMeta", 1)])
def test_non_utf8_file_is_parse_error_naming_its_line(tmp_path, kind: str, line_no: int) -> None:
    paths = write_recording(tmp_path, ["7,0,0,0,1,1,0\n", "7,0,1,0,1,1,0\n"], ["7,0,0,1,2,car\n"])
    path = tmp_path / f"07_{kind}.csv"
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] = lines[line_no - 1].replace(b",", b",\xe9", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        parse_ind_tracks(*paths)
    assert str(err.value) == f"{path}:{line_no}: not valid UTF-8 (byte 0xe9)"


def test_non_utf8_byte_deep_in_large_tracks_names_its_line(tmp_path) -> None:
    paths = large_recording(tmp_path)
    lines = paths[0].read_bytes().split(b"\n")
    lines[4320] += b"\xff"
    paths[0].write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        parse_ind_tracks(*paths)
    assert str(err.value) == f"{paths[0]}:4321: not valid UTF-8 (byte 0xff)"


def test_read_videos_reads_recordings_in_path_order_and_claims_each_after_parsing(tmp_path) -> None:
    for name in "abc":
        (tmp_path / name).mkdir()
    write_recording(tmp_path / "a", ["7,0,0,0,1,1,0\n"], ["7,0,0,0,1,car\n"])
    write_recording(tmp_path / "b", [], [])  # no tracks: no video, no diagnostics
    write_recording(tmp_path / "c", ["7,0,0,0,1,1,0\n"], ["7,0,0,0,1,car\n"])
    diagnostics: dict = {}
    videos = ind.read_videos([tmp_path / "c", tmp_path / "b", tmp_path / "a"], diagnostics)
    assert diagnostics == {}
    assert [t.source.key() for t in next(videos)] == [("ind", "location1", "7")]
    assert diagnostics == {"location1/7": {"tracks_file": "07_tracks.csv", "n_trajectories": 1}}
    assert next(videos) == []
    with pytest.raises(ConfigError) as err:
        next(videos)
    first, second = (tmp_path / name / "07_tracks.csv" for name in ("a", "c"))
    assert str(err.value) == f"two input files for video location1/7: {first} and {second}"
