"""End-to-end and per-layer benchmark for the trajscope CLI.

    python3 perfbench/run.py --workload sdd_bulk --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Each run:

1. set-up (timed as `setup_s`, median of SETUP_REPEATS): generates the
   workload's SDD/inD tree and config from `--seed`, and runs any untimed
   preparatory command;
2. measures for `--seconds`, repeating the workload's command sequence:
   * `--trace 0`: every command in a fresh interpreter, as `trajscope <cmd>`
     is used, timed from outside (wall time, peak RSS via os.wait4);
   * `--trace 1`: in this process, alternating untraced and traced runs of
     `trajscope.cli.main`; the traced runs give the per-layer numbers and
     the difference between the two is the tracing overhead;
3. checks every command: exit code 0, no traceback, and the files it wrote
   under `out/` match golden sha256 digests (default seed) or the first
   run of this seed byte for byte, with the expected file set present.

The last stdout line is the result object; the line before it holds the
input facts, environment and per-command medians. Work files live in
`.perfbench_work/` in the checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
ENTRY = "import sys; from trajscope.cli import main; sys.exit(main())"
N_WINDOW = {"sdd": 30, "ind": 25}  # the CLI's defaults, used for the pair facts
SWEEP_DELTAS = ("1.0", "0.98", "0.9")
SWEEP_NS = ("25", "50")
TOP_K = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    videos: tuple[str, ...]  # "scene/videoN" for SDD, recording ids for inD
    n_tracks: int  # per video
    n_frames: int
    length_range: tuple[int, int]
    timed: tuple[tuple[str, ...], ...]  # (command, *extra args)
    setup_commands: tuple[tuple[str, ...], ...] = ()
    planted_len: int = 0
    group: float | None = None  # SDD: one staggered crowd of this radius (px)
    rho: str = ""  # YAML `rho:` section body; empty means fitted from data


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sdd_bulk",
            why="Many rows, few pairs: parse, assemble, store write/load and RSS; aim/mi stay idle.",
            dataset="sdd",
            videos=("deathcircle/video0", "deathcircle/video1"),
            n_tracks=80,
            n_frames=10000,
            length_range=(300, 1200),
            timed=(("ingest",), ("stats",), ("eval", "--lost-policy", "keep_lost,filter_keep_first")),
        ),
        Workload(
            name="sdd_aim_topk",
            why="Many short co-present pairs, fitted normalizers: kinematics, fit pass, top-k re-measure, MI per call.",
            dataset="sdd",
            videos=("gates/video3",),
            n_tracks=30,
            n_frames=1500,
            length_range=(90, 200),
            group=150.0,
            timed=(("aim",),),
            setup_commands=(("ingest",),),
        ),
        Workload(
            name="ind_pair_sweep",
            why="inD parser, intersection pooling, 25 fps resample, pair search, and the --pair sweep on long pairs.",
            dataset="ind",
            videos=("7", "18"),
            n_tracks=50,
            n_frames=2400,
            length_range=(150, 600),
            planted_len=300,
            rho="  v0: 4.0\n  a0: 0.5\n  sigma_d: 400.0\n",
            timed=(
                ("ingest",), ("stats",), ("eval",),
                ("aim", "--pair", "0,1", "--sweep-delta", ",".join(SWEEP_DELTAS), "--sweep-n", ",".join(SWEEP_NS)),
            ),
        ),
    )
}


# --- inputs -------------------------------------------------------------------------


def make_inputs(w: Workload, seed: int, dest: Path) -> dict:
    """Write the workload's input tree and run.yaml under dest; return input facts."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    inputs = dest / "inputs"
    spans: list[gen.TrackSpan] = []
    for video in w.videos:
        if w.dataset == "sdd":
            spans += gen.write_sdd_video(
                inputs / video / "annotations.txt", rng, video, w.n_tracks, w.n_frames,
                w.length_range, w.group,
            )
        else:
            spans += gen.write_ind_recording(
                inputs, rng, int(video), w.n_tracks, w.n_frames, w.length_range, w.planted_len
            )
    config = f"dataset: {w.dataset}\ninputs: [{json.dumps(str(inputs))}]\nout: out\n"
    if w.rho:
        config += "rho:\n" + w.rho
    (dest / "run.yaml").write_text(config)
    facts = {
        "rows": sum(s.last - s.first + 1 for s in spans),
        "tracks": len(spans),
        "videos": len(w.videos),
        "frames_per_video": w.n_frames,
        "n_window": N_WINDOW[w.dataset],
        **gen.pair_facts(spans, N_WINDOW[w.dataset]),
    }
    if w.planted_len:
        facts["planted_pair"] = {"track_ids": [0, 1], "frames": w.planted_len, "recordings": list(w.videos)}
    return facts


def tree_digests(root: Path) -> dict[str, str]:
    if not root.is_dir():
        return {}
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# --- output check -------------------------------------------------------------------


def owner(rel: str) -> str:
    """The command that writes an out/ file."""
    if rel.startswith("store/"):
        return "ingest"
    if rel.startswith("aim/"):
        return "aim"
    if rel.startswith("reports/eval."):
        return "eval"
    return "stats"


def video_stem(w: Workload, video: str) -> str:
    """The program's file-name stem for one input video (store and aim files)."""
    if w.dataset == "sdd":
        return "sdd__" + video.replace("/", "__")
    return f"ind__location{gen.IND_LOCATION[int(video)]}__{video}"


def expected_files(w: Workload, command: tuple[str, ...], files: list[str]) -> str | None:
    """None if the files a command wrote are the expected set, else a reason."""
    name = command[0]
    if name == "ingest":
        want = {"store/manifest.json"} | {f"store/{video_stem(w, v)}.jsonl" for v in w.videos}
    elif name == "stats":
        bases = ["lost_stats", "class_distribution"] + (["overlap_report"] if w.dataset == "sdd" else [])
        want = {f"reports/{b}.{ext}" for b in bases for ext in ("csv", "jsonl")}
    elif name == "eval":
        want = {"reports/eval.csv", "reports/eval.jsonl"}
    elif "--pair" in command:
        want = {
            f"aim/{video_stem(w, v)}__pair_0_1__d{d}__n{n}.{ext}"
            for v in w.videos for d in SWEEP_DELTAS for n in SWEEP_NS
            for ext in ("csv", "jsonl", "meta.json")
        }
    else:  # top-k: which pairs win is the program's answer, so check the shape only
        stems = {f.split(".", 1)[0] for f in files}
        want = {f"{stem}.{ext}" for stem in stems for ext in ("csv", "jsonl", "meta.json")}
        if len(stems) != TOP_K:
            return f"expected {TOP_K} aim series, got files {files}"
    if set(files) != want:
        return f"missing {sorted(want - set(files))}, unexpected {sorted(set(files) - want)}"
    return None


class OutputCheck:
    """Compares each command's files against golden digests or the first run."""

    def __init__(self, w: Workload, golden: dict[str, str] | None):
        self.w = w
        self.reference: dict[str, dict[str, str]] = {}
        if golden is not None:
            for rel, digest in golden.items():
                self.reference.setdefault(owner(rel), {})[rel] = digest
        self.problems: list[str] = []

    def __call__(self, command: tuple[str, ...], digests: dict[str, str]) -> bool:
        mine = {rel: d for rel, d in digests.items() if owner(rel) == command[0]}
        reason = expected_files(self.w, command, sorted(mine))
        if reason is None:
            ref = self.reference.setdefault(command[0], mine)
            bad = sorted(rel for rel in set(ref) | set(mine) if ref.get(rel) != mine.get(rel))
            if bad:
                reason = f"{len(bad)} file(s) differ from the reference: {bad}"
        if reason is not None:
            self.problems.append(f"{command[0]}: {reason}")
        return reason is None


# --- running commands ---------------------------------------------------------------


@dataclass
class CommandRun:
    name: str
    wall_s: float
    rss_mib: float
    ok: bool
    detail: str = ""


def command_argv(command: tuple[str, ...], config: Path, out: Path) -> list[str]:
    return [command[0], "--config", str(config), "--out", str(out), *command[1:]]


def run_child(command: tuple[str, ...], config: Path, out: Path, log: Path) -> CommandRun:
    """One command in a fresh interpreter; wall time and this child's peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, *command_argv(command, config, out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.read_text(errors="replace")
    ok = proc.returncode == 0 and "Traceback" not in stderr
    detail = "" if ok else f"exit {proc.returncode}: {stderr[-400:]}"
    return CommandRun(command[0], wall, usage.ru_maxrss / 1024.0, ok, detail)


def run_inprocess(command: tuple[str, ...], config: Path, out: Path, tracer=None) -> CommandRun:
    from trajscope import cli

    main = cli.main if tracer is None else tracer.span(f"cli.{command[0]}", cli.main)
    err = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(command_argv(command, config, out))
        detail = "" if code == 0 else f"exit {code}: {err.getvalue()[-400:]}"
    except Exception:
        detail = traceback.format_exc()[-400:]
    wall = perf_counter() - start
    return CommandRun(command[0], wall, 0.0, not detail, detail)


# --- set-up and measurement ---------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = dataclasses.field(default_factory=list)

    def add(self, run: CommandRun, output_ok: bool = True) -> None:
        self.attempted += 1
        if not (run.ok and output_ok):
            self.failed += 1
            if run.detail:
                self.notes.append(f"{run.name}: {run.detail}")


def setup(w: Workload, seed: int, work: Path, check: OutputCheck, tally: Tally) -> tuple[Path, list[float], dict, bool]:
    """Generate the inputs (and run set-up commands) SETUP_REPEATS times."""
    times, digests = [], []
    facts: dict = {}
    for i in range(SETUP_REPEATS):
        dest = work / f"setup{i}"
        start = perf_counter()
        facts = make_inputs(w, seed, dest)
        runs = [run_child(c, dest / "run.yaml", dest / "out", work / "child.log") for c in w.setup_commands]
        times.append(perf_counter() - start)
        out_digests = tree_digests(dest / "out")
        for command, run in zip(w.setup_commands, runs):
            tally.add(run, check(command, out_digests))
        digests.append(tree_digests(dest / "inputs"))
        if i:
            shutil.rmtree(dest)
    return work / "setup0", times, facts, all(d == digests[0] for d in digests)


def fresh_out(base: Path, work: Path, k: int) -> Path:
    """An empty out/ for iteration k, seeded with the set-up's store if any."""
    out = work / f"iter{k}" / "out"
    if (base / "out").is_dir():
        shutil.copytree(base / "out", out)
    else:
        out.mkdir(parents=True)
    return out


def measure(w: Workload, base: Path, work: Path, seconds: float, check: OutputCheck,
            tally: Tally, step: Callable[[tuple[str, ...], Path, bool], CommandRun],
            variants: tuple[bool, ...]) -> dict[bool, list[list[CommandRun]]]:
    """Repeat the timed command sequence until `seconds` have passed.

    Each iteration runs once per variant (untraced/traced), each in a fresh
    out/; returns the command runs per variant and iteration.
    """
    results: dict[bool, list[list[CommandRun]]] = {v: [] for v in variants}
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        for variant in variants:
            out = fresh_out(base, work, k)
            runs = [step(c, out, variant) for c in w.timed]
            digests = tree_digests(out)
            for command, run in zip(w.timed, runs):
                tally.add(run, check(command, digests))
            results[variant].append(runs)
            shutil.rmtree(out.parent)
            k += 1
    return results


def median(values) -> float:
    return float(statistics.median(values))


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, golden: dict[str, str] | None) -> tuple[dict, dict, dict]:
    """Set up, measure and check one run: (result line, info line, reference digests)."""
    check = OutputCheck(w, golden)
    tally = Tally()
    base, setup_times, facts, inputs_repeat = setup(w, seed, work, check, tally)
    config = base / "run.yaml"
    info: dict = {"workload": w.name, "why": w.why, "seed": seed, "trace": int(trace),
                  "inputs": facts, "setup_s": setup_times, "env": environment()}

    if not trace:
        log = work / "child.log"
        runs = measure(w, base, work, seconds, check, tally,
                       lambda c, out, _: run_child(c, config, out, log), (False,))[False]
        pipeline = [sum(r.wall_s for r in it) for it in runs]
        per_cmd = {f"{c[0]}_s": [it[i].wall_s for it in runs] for i, c in enumerate(w.timed)}
        info["commands"] = {k: {"median": median(v), "n": len(v), "unit": "s"} for k, v in per_cmd.items()}
        if "ingest_s" in per_cmd:
            info["ingest_rows_per_s"] = facts["rows"] / median(per_cmd["ingest_s"])
        metrics = {
            "pipeline_s": (median(pipeline), "s"),
            "peak_rss_mib": (median([max(r.rss_mib for r in it) for it in runs]), "MiB"),
            "setup_s": (median(setup_times), "s"),
        }
        info["samples"] = len(runs)
    else:
        tracers: list[layers.Tracer] = []

        def step(command, out, traced):
            if not traced:
                return run_inprocess(command, config, out)
            if command is w.timed[0]:
                tracers.append(layers.Tracer())
            tracer = tracers[-1]
            with tracer:
                run = run_inprocess(command, config, out, tracer)
            if command[0] == "ingest":
                tracer.counts["store.write_bytes"] += sum(
                    p.stat().st_size for p in (out / "store").rglob("*") if p.is_file()
                )
            return run

        runs = measure(w, base, work, seconds, check, tally, step, (False, True))
        per_iter = [t.metrics() for t in tracers]
        untraced = median([sum(r.wall_s for r in it) for it in runs[False]])
        traced = median([t.root_total() for t in tracers])
        metrics = {name: (median([m[name] for m in per_iter]), unit)
                   for name, (unit, _) in layers.layer_metrics().items() if not name.startswith("trace.")}
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
        info["trace"] = {
            "untraced_pipeline_s": untraced,
            "traced_pipeline_s": traced,
            "max_unaccounted_s": max(abs(t.root_total() - t.accounted()) for t in tracers),
        }
        info["samples"] = len(tracers)

    info["failed_ratio"] = tally.failed / tally.attempted
    info["problems"] = check.problems + tally.notes
    correct = tally.failed == 0 and inputs_repeat
    if not inputs_repeat:
        info["problems"].append("generator produced different inputs for the same seed")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info, check.reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help=f"record this run's out/ digests as the golden ones (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "trajscope" / "cli.py").is_file():
        print(f"error: no trajscope sources under {SRC}", file=sys.stderr)
        return 2
    if args.update_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--update-golden needs --seed {DEFAULT_SEED}")
    w = WORKLOADS[args.workload]
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = goldens.get(w.name) if args.seed == DEFAULT_SEED and not args.update_golden else None
    if args.trace:
        sys.path.insert(0, str(SRC))
        import trajscope.cli  # noqa: F401  (imported before timing starts)

    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, info, reference = run_workload(w, args.seed, args.seconds, bool(args.trace), work, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if args.seed == DEFAULT_SEED and golden is None and not args.update_golden:
        info["problems"].append(f"no golden digests for {w.name} in {GOLDEN.name}")
    if args.update_golden:
        if not result["correct"]:
            print("error: not updating golden digests after a failed run", file=sys.stderr)
            return 1
        goldens[w.name] = {rel: d for digests in reference.values() for rel, d in sorted(digests.items())}
        GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    for problem in info["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
