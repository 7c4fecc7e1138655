"""Which lines of src/covtrans the tests run, and which of them a command reaches.

Run from the repository root; it needs only the standard library and
pytest, and pytest does not collect it:

    python tests/line_trace.py

One process traces every line of src/covtrans with sys.settrace while it
runs `pytest tests/`, then one `--seconds 0` round of each benchmark
workload at seed 5 (bench/run.py through runpy, which writes only under
the ignored bench/_out/).  A line is command-reached when it runs while a
cli.main or cli.run_config frame is active: a command enters through
main, and a benchmark round through run_config.  A test-only line runs
inside a function, not in a module or class body nor in a comprehension
at module level, but is never command-reached: only a direct library
call from a test reaches it.

It prints, per file, the lines run, the command-reached lines and the
test-only lines, then each test-only line with its function.  It exits 0
when the tests and every round pass.  The tracer slows the tests about
five times.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = f"{ROOT / 'src' / 'covtrans'}{os.sep}"
CLI = f"{PACKAGE}cli.py"
ENTRIES = ("main", "run_config")
WORKLOADS = ("cyclic-certify", "deep-tower", "noncyclic-certify")


class LineTracer:
    """Lines run under src/covtrans, keyed (file, line), with what reached them."""

    def __init__(self):
        self.ran: set[tuple[str, int]] = set()
        self.reached: set[tuple[str, int]] = set()
        self.body: dict[tuple[str, int], str] = {}  # function body line -> its function
        self.commands = 0  # cli.main and cli.run_config frames now active

    def call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        if event == "call" and code.co_name in ENTRIES and code.co_filename == CLI:
            self.commands += 1
        return self.line

    def line(self, frame, event, arg):
        code = frame.f_code
        if event == "line":
            key = (code.co_filename, frame.f_lineno)
            self.ran.add(key)
            if self.commands:
                self.reached.add(key)
            if code.co_flags & CO_NEWLOCALS and not code.co_qualname.startswith("<"):
                self.body[key] = code.co_qualname
        elif event == "return" and code.co_name in ENTRIES and code.co_filename == CLI:
            # a generator's yield also returns, but neither entry is a generator
            self.commands -= 1
        return self.line

    def __enter__(self):
        sys.settrace(self.call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_workload(name: str) -> int:
    """One --seconds 0 round of a benchmark workload at seed 5; its exit code."""
    argv = sys.argv
    sys.argv = ["bench/run.py", "--workload", name, "--seed", "5", "--seconds", "0"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "bench" / "run.py"), run_name="__main__")
    except SystemExit as exc:
        return exc.code or 0
    finally:
        sys.argv = argv
    return 0


def report(tracer: LineTracer) -> None:
    test_only = {key: fn for key, fn in tracer.body.items() if key not in tracer.reached}
    print(f"{'file':16s} {'run':>6s} {'command':>8s} {'test-only':>10s}")
    files = sorted({path for path, _ in tracer.ran})
    totals = [0, 0, 0]
    for path in files:
        counts = [
            sum(1 for p, _ in keys if p == path)
            for keys in (tracer.ran, tracer.reached, test_only)
        ]
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{Path(path).name:16s} {counts[0]:6d} {counts[1]:8d} {counts[2]:10d}")
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:8d} {totals[2]:10d}")
    print("\ntest-only lines:")
    for (path, line), fn in sorted(test_only.items()):
        print(f"  {Path(path).name}:{line} {fn}")


def main() -> int:
    os.chdir(ROOT)
    os.environ.pop("COVTRANS_BUDGET", None)  # the benchmark refuses to run under one
    sys.dont_write_bytecode = True  # nothing under bench/ but bench/_out/
    failed = []
    with LineTracer() as tracer:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        if code != 0:
            failed.append(f"pytest exited {code}")
        for name in WORKLOADS:
            code = run_workload(name)
            if code != 0:
                failed.append(f"workload {name} exited {code}")
    report(tracer)
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
