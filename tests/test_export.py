"""The column-at-once series export against the per-row table writer it replaced."""
from __future__ import annotations

import csv
import json
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
