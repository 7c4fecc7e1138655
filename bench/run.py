"""covtrans benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload cyclic-certify --seed 1 --seconds 20 --trace 0

It imports covtrans from `src/` next to this directory, sets up (fresh
imports of the package and input generation, repeated; the median is
`setup_s`), then runs whole rounds of the workload's commands until
`--seconds` have passed.  Every command's output is checked independently
(see checks.py); an operation whose check fails counts in `failed`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones: medians over rounds of times stated at a reference CPU speed
(see speed.py), and the peak resident set.  With `--trace 1` every boundary between
covtrans modules is wrapped (see tracing.py) and the metrics are the per-layer
per-round means.  Each run also writes `bench/_out/<workload>-seed<seed>-trace<t>.json`
with the per-round details, and the traced run its spans.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "make_s": "s",
    "recheck_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def import_covtrans():
    """Fresh import of covtrans and every submodule from this checkout's src/."""
    for name in [m for m in sys.modules if m == "covtrans" or m.startswith("covtrans.")]:
        del sys.modules[name]
    package = importlib.import_module("covtrans")
    cli = importlib.import_module("covtrans.cli")
    if Path(package.__file__).resolve().parent != SRC / "covtrans":
        raise SetupError(f"imported covtrans from {package.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int):
    """Import covtrans and generate round 0's inputs, SETUP_REPEATS times."""
    if not (SRC / "covtrans" / "__init__.py").is_file():
        raise SetupError(f"no covtrans package under {SRC}")
    if "COVTRANS_BUDGET" in os.environ:
        raise SetupError(
            "COVTRANS_BUDGET is set; it changes which verifier `auto` picks, so unset it"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    imported = []

    def one_setup() -> float:
        start = time.perf_counter()
        imported.append(import_covtrans())
        round_rng(workload, seed, 0)
        return time.perf_counter() - start

    times = [speed.reference_time(one_setup) for _ in range(SETUP_REPEATS)]
    return imported[-1], times


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator of round `index`'s command seeds; a function of --seed alone."""
    return random.Random(f"{workload}:{seed}:{index}")


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cli, setup_times = set_up(workload, seed)
    round_fn, prepare = workloads.WORKLOADS[workload]
    prepared = prepare()
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if traced else None

    @contextlib.contextmanager
    def untraced():
        if tracer is None:
            yield
            return
        tracer.uninstall()
        try:
            yield
        finally:
            tracer.install()

    rounds = []
    last_round = 0.0
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        with speed.SpeedSampler() as sampler:
            while not rounds or time.perf_counter() - started + last_round < seconds:
                round_start = time.perf_counter()
                rnd = workloads.Round(cli, out_dir, sampler)
                label, path = round_fn(rnd, round_rng(workload, seed, len(rounds)), prepared)
                with untraced():
                    rnd.rerun(label, path)
                rounds.append(rnd)
                last_round = time.perf_counter() - round_start
    finally:
        if tracer is not None:
            tracer.uninstall()

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "make_s": statistics.median(r.reference_time("make") for r in rounds),
        "recheck_s": statistics.median(r.reference_time("recheck") for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "process_to_first_command_s": started - _PROCESS_START,
        "setup_reference_times_s": setup_times,
        "calibration_samples": len(sampler.samples),
        "end_to_end": end_to_end,
        "wall_end_to_end": {
            bucket: statistics.median(r.times[bucket] for r in rounds)
            for bucket in ("make", "recheck")
        },
        "rounds": [
            {
                "wall_times_s": dict(r.times),
                "slowdown": {bucket: r.slowdown(bucket) for bucket in r.times},
                "command_times_s": dict(r.command_times),
                "problems": {k: v for k, v in r.problems.items() if v},
            }
            for r in rounds
        ],
    }
    if tracer is not None:
        detail["per_layer"] = tracer.per_layer(len(rounds))
        detail["spans"] = tracer.spans
        detail["spans_dropped"] = tracer.spans_dropped
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"{workload}-seed{seed}-trace{int(traced)}.json"
    detail_path.write_text(json.dumps(detail), encoding="utf-8")

    if tracer is not None:
        units = tracing.per_layer_units()
        values = detail["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = end_to_end
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for label, found in r.problems.items():
            for problem in found:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
    # an operation whose output failed a check is counted in `failed`; the
    # outputs of all the others were checked and found correct
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
