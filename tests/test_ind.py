from __future__ import annotations

import io

import pytest

from trajscope.ind import meters_to_pixels, parse_ind_tracks, pixels_to_meters
from trajscope.types import ParseError, StructuralError

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
