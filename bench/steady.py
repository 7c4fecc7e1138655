"""Steadiness and tracing overhead of the benchmark.

Usage (from the repository root):

    python3 bench/steady.py --runs 10 --seconds 20
    python3 bench/steady.py --runs 5 --workload noncyclic-certify

Runs bench/run.py once per seed (seeds first-seed .. first-seed + runs - 1),
one process at a time, and reports for every end-to-end metric of every
workload the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, with the share of failed operations, and the
same for the unadjusted wall times of the two timed buckets.  Then it
runs the first `--traced-runs` seeds again with `--trace 1` and reports the
tracing overhead: traced minus untraced end-to-end value on the same seed.
The report is printed and written to bench/_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "_out"
WORKLOADS = ("cyclic-certify", "deep-tower", "noncyclic-certify")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness and tracing overhead")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    report = {}
    for workload in args.workload or WORKLOADS:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = {seed: run_once(workload, seed, args.seconds, 0) for seed in seeds}
        names = next(iter(results.values()))["metrics"]
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in results.values()])
            for name in names
        }
        wall = {
            f"wall_{bucket}_s": summarize([
                json.loads((OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())[
                    "wall_end_to_end"][bucket]
                for seed in seeds
            ])
            for bucket in ("make", "recheck")
        }
        overhead = {}
        for seed in list(seeds)[: args.traced_runs]:
            run_once(workload, seed, args.seconds, 1)
            detail = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
            for name, traced in detail["end_to_end"].items():
                untraced = results[seed]["metrics"][name]["value"]
                overhead.setdefault(name, []).append(
                    {"seed": seed, "traced": traced, "untraced": untraced,
                     "overhead": traced - untraced, "relative": (traced - untraced) / untraced}
                )
        report[workload] = {
            "failed_share": [r["failed"] / r["attempted"] for r in results.values()],
            "end_to_end": metrics,
            "wall_clock": wall,
            "tracing_overhead": overhead,
        }
        print(f"== {workload}")
        for name, s in {**metrics, **wall}.items():
            print(
                f"  {name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                f"  spread {s['spread']:.4f}"
            )
        for name, rows in overhead.items():
            for row in rows:
                print(
                    f"  traced {name:<12} seed {row['seed']}: {row['traced']:.6g} vs "
                    f"{row['untraced']:.6g} ({row['relative']:+.1%})"
                )
        print(f"  failed share: {sorted(set(report[workload]['failed_share']))}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({w: {m: s["spread"] for m, s in r["end_to_end"].items()} for w, r in report.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
