"""The column-at-once table writer, for the series export and the reports,
against the per-row writers it replaced."""
from __future__ import annotations

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_traj
from trajscope import cli
from trajscope.aim import InteractionPair, MeasureSeries, RhoConfig

FIELDS = ("frame", "xi", "yi", "xj", "yj", "mi", "rho", "aim")


def row_writer_oracle(base: Path, series: MeasureSeries, export_format: str) -> None:
    """One dict per row, each float cell formatted on its own, as the old export did."""
    pair = series.pair
    rows = []
    for k, frame in enumerate(series.frames):
        xi = pair.xi[series.n_window + k]
        xj = pair.xj[series.n_window + k]
        rows.append(
            {
                "frame": int(frame),
                "xi": float(xi[0]),
                "yi": float(xi[1]),
                "xj": float(xj[0]),
                "yj": float(xj[1]),
                "mi": float(series.mi[k]),
                "rho": float(series.rho[k]),
                "aim": float(series.aim[k]),
            }
        )

    def cell(value) -> str:
        return f"{value:.6f}" if isinstance(value, float) else str(value)

    if export_format in ("csv", "both"):
        with open(base.parent / (base.name + ".csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(FIELDS)
            for row in rows:
                writer.writerow([cell(row[f]) for f in FIELDS])
    if export_format in ("jsonl", "both"):
        with open(base.parent / (base.name + ".jsonl"), "w") as fh:
            for row in rows:
                payload = {k: round(v, 6) if isinstance(v, float) else v for k, v in row.items()}
                fh.write(json.dumps(payload, sort_keys=True))
                fh.write("\n")


# -0.0, values that round to -0.0 or 0.0, ties at the sixth decimal (numpy's
# scaled rounding moves 722.8510965 the other way), and the very small and large
SPECIAL = (
    -0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, 1e-7, -1e-7, 1e15, -1e15, 2.5e-6, 0.0000015,
    722.8510965, 640.1935065, -746.7715155, 14.1389285, 1.0000005, 123456.7890125,
)
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e16, 1e16, allow_nan=False),
    st.integers(-(10**9), 10**9).map(lambda i: i / 1e6 + 5e-7),
)


def make_series(columns: list[list[float]], frames: list[int], n_window: int) -> MeasureSeries:
    n = len(frames)
    pad = [(0.0, 0.0)] * n_window
    ti = make_traj(pad + list(zip(columns[0], columns[1])), track_id=3)
    tj = make_traj(pad + list(zip(columns[2], columns[3])), track_id=8)
    all_frames = np.concatenate([np.arange(n_window) - n_window + frames[0], frames]).astype(np.int64)
    pair = InteractionPair(ti, tj, all_frames, ti.xy(), tj.xy(), n_window)
    mi, rho, aim = (np.array(c, dtype=np.float64) for c in columns[4:])
    return MeasureSeries(pair, 0.98, n_window, all_frames[n_window:], mi, rho, aim, RhoConfig())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda n: st.lists(st.lists(values, min_size=n, max_size=n), min_size=7, max_size=7)),
    st.integers(-(2**40), 2**40),
    st.integers(1, 3),
    st.sampled_from(cli.EXPORT_FORMATS),
)
@example([list(SPECIAL)] * 7, 0, 2, "both")
@example([list(SPECIAL[::-1])] * 7, -5, 1, "jsonl")
def test_series_export_bytes_equal_the_row_writer(columns, first_frame, n_window, export_format) -> None:
    frames = (first_frame + 3 * np.arange(len(columns[0]))).tolist()
    series = make_series(columns, frames, n_window)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.yaml"
        config.write_text(f"dataset: sdd\ninputs: [{root}]\nout: {root / 'out'}\nexport_format: {export_format}\n")
        cfg = cli.load_run_config(config)
        cli._export_series(cfg, ("sdd", "s", "v"), series, swept=False)
        (stem,) = {p.name.split(".")[0] for p in cfg.aim_dir.iterdir()}
        expected = root / "expected"
        expected.mkdir()
        row_writer_oracle(expected / stem, series, export_format)
        for path in expected.iterdir():
            assert (cfg.aim_dir / path.name).read_bytes() == path.read_bytes(), path.name
        assert {p.name for p in cfg.aim_dir.iterdir()} == {p.name for p in expected.iterdir()} | {
            f"{stem}.meta.json"
        }


def test_special_values_differ_under_numpy_rounding() -> None:
    # the ties above would catch an export that rounds with np.round
    assert any(round(v, 6) != float(np.round(v, 6)) for v in SPECIAL)


# --- the report writer ------------------------------------------------------------------


def format_cell_oracle(value, decimals: int | None) -> str:
    if decimals is not None and isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def json_value_oracle(value, decimals: int | None):
    if decimals is not None and isinstance(value, float):
        return round(value, decimals)
    return value


def write_table_oracle(base, fieldnames, rows, decimals, export_format, jsonl_rows=None) -> list[Path]:
    """The per-row report writer, with jsonl_rows overriding the JSONL records."""
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if export_format in ("csv", "both"):
        path = base.parent / (base.name + ".csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow([format_cell_oracle(row[f], decimals.get(f)) for f in fieldnames])
        written.append(path)
    if export_format in ("jsonl", "both"):
        path = base.parent / (base.name + ".jsonl")
        source = jsonl_rows if jsonl_rows is not None else rows
        with open(path, "w") as fh:
            for row in source:
                payload = {k: json_value_oracle(v, decimals.get(k)) for k, v in row.items()}
                fh.write(json.dumps(payload, sort_keys=True))
                fh.write("\n")
        written.append(path)
    return written


def flatten_groups_oracle(rows: list[dict], name: str) -> list[dict]:
    """The stats command's CSV rendering of the overlap report's groups."""
    return [{**row, name: "|".join("-".join(map(str, group)) for group in row[name])} for row in rows]


# cells that need CSV quoting (delimiter, quote, line breaks) or JSON escaping
TEXT = st.text(
    st.one_of(st.sampled_from(',"\n\r\t |-\\é€😀\x00\x7f'), st.characters(codec="utf-8")),
    max_size=8,
)
DECIMAL = st.one_of(
    st.sampled_from(SPECIAL + (math.nan, math.inf, -math.inf)),
    st.floats(),
    st.integers(-(10**9), 10**9).map(lambda i: i / 1e6 + 5e-7),
)
CELLS = {
    "text": TEXT,
    "int": st.integers(-(2**70), 2**70),
    "decimal": DECIMAL,
    "groups": st.lists(st.lists(st.integers(0, 999), max_size=4).map(tuple), max_size=3).map(tuple),
}


@st.composite
def tables(draw) -> tuple[dict[str, list], dict[str, int], list[str]]:
    """Columns by name in field order, the decimals of the float columns, and the
    names of the group columns."""
    n_rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    names = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    columns = {
        name: draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
        for name, kind in zip(names, kinds)
    }
    decimals = {name: draw(st.integers(0, 8)) for name, kind in zip(names, kinds) if kind == "decimal"}
    return columns, decimals, [name for name, kind in zip(names, kinds) if kind == "groups"]


OVERLAP = (
    {
        "scene": ["bookstore", "coupa"],
        "location_overlap": ["high", "low"],
        "time_overlap": ["none", "partial"],
        "simultaneous_groups": [((0, 1, 2), (4, 5)), ()],
    },
    {},
    ["simultaneous_groups"],
)
EMPTY = ({"scene": [], "n_tracks": [], "Biker": []}, {"Biker": 2}, [])


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(cli.EXPORT_FORMATS))
@example(OVERLAP, "both")
@example(EMPTY, "both")
@example(({"ade": list(SPECIAL), "n": list(range(len(SPECIAL)))}, {"ade": 6}, []), "both")
def test_report_bytes_equal_the_row_writer(table, export_format) -> None:
    columns, decimals, group_names = table
    names = list(columns)
    rows = [dict(zip(names, cells)) for cells in zip(*columns.values())]
    flat = rows
    for name in group_names:
        flat = flatten_groups_oracle(flat, name)
    with tempfile.TemporaryDirectory() as tmp:
        # a dot in the base name is kept, not taken for a suffix
        written = cli._write_table(Path(tmp) / "new" / "report.v1", columns, decimals, export_format)
        expected = write_table_oracle(
            Path(tmp) / "old" / "report.v1", names, flat, decimals, export_format,
            jsonl_rows=rows if group_names else None,
        )
        assert [p.name for p in written] == [p.name for p in expected]
        for path, reference in zip(written, expected):
            assert path.read_bytes() == reference.read_bytes(), path.name

