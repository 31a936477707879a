"""Memory bounds of ingest, measured with tracemalloc (numpy reports its
array buffers to it), so the numbers do not depend on the allocator."""
from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np

from trajscope.cli import main
from trajscope.sdd import parse_sdd_annotations
from trajscope.types import ALL_CLASSES


def write_video(path: Path, n_tracks: int = 40, n_frames: int = 500) -> None:
    """One SDD video: every track present in every frame, integer boxes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        f"{t} {t * 20 + f % 97} {f % 311} {t * 20 + f % 97 + 12} {f % 311 + 30} {f} "
        f'{int(f % 50 < 5)} 0 0 "{ALL_CLASSES[t % len(ALL_CLASSES)]}"'
        for t in range(n_tracks)
        for f in range(n_frames)
    ]
    path.write_text("\n".join(rows) + "\n")


def peak_of(call) -> int:
    """Bytes allocated by `call()` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def ingest_peak(tmp_path: Path, name: str, n_videos: int) -> int:
    for v in range(n_videos):
        write_video(tmp_path / name / "inputs" / "quad" / f"video{v}" / "annotations.txt")
    config = tmp_path / name / "run.yaml"
    config.write_text(f"dataset: sdd\ninputs: [{tmp_path / name / 'inputs'}]\nout: {tmp_path / name / 'out'}\n")
    codes: list[int] = []
    peak = peak_of(lambda: codes.append(main(["ingest", "--config", str(config)])))
    assert codes == [0]
    return peak


def test_ingest_holds_one_video_at_a_time(tmp_path) -> None:
    ingest_peak(tmp_path, "warm", 1)  # imports and first-call caches
    one = ingest_peak(tmp_path, "one", 1)
    three = ingest_peak(tmp_path, "three", 3)
    assert three <= 1.1 * one, (one, three)


def test_parse_peak_is_a_small_multiple_of_the_records(tmp_path) -> None:
    path = tmp_path / "annotations.txt"
    write_video(path, n_tracks=100)
    parse_sdd_annotations(path)
    records: list[np.ndarray] = []
    peak = peak_of(lambda: records.append(parse_sdd_annotations(path)))
    assert len(records[0]) == 50_000
    # Measured: 1.84x on CPython 3.11, where the file's bytes (0.41x) are
    # freed before the records are built. Were they held to the end of the
    # parse, as a caller's argument is on 3.10, the peak would be ~2.25x.
    assert peak <= 2.1 * records[0].nbytes, peak / records[0].nbytes
