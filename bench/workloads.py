"""The three workloads: what each round runs through `covtrans.cli.run_config`.

Every command goes through the CLI's in-process entry with the same
configuration keys the command line builds, so documents are assembled
and serialised exactly as users get them.  Commands that make documents
(`covering construct`, `covering exact-cov`, `tower build`) are timed into
the round's `make` bucket; commands that load a written document and check
it again (`covering verify --in`, `tower translate --in`) into `recheck`.
Each command's output is then checked by `checks` outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import defaultdict
from pathlib import Path

import checks

CYCLIC_ORDERS = (1024, 2048, 4096)
EXACT_GROUPS = (
    *(f"C{n}" for n in range(2, 17)),
    *(f"D{m}" for m in range(3, 9)),
    "S3",
    "EA(2,2)",
    "EA(2,3)",
    "EA(2,4)",
    "EA(3,2)",
    "C2xC4",
    "C2xC6",
    "C4xC4",
)
# (group, what is constructed, verification mode of the construction)
NONCYCLIC_CONSTRUCTS = (
    ("S6", "family", "auto"),
    ("S7", "cover", "sampled:500"),
    ("D60", "family", "auto"),
    ("EA(2,9)", "family", "auto"),
    ("C32xC32", "cover", "auto"),
)
TOWER_SPEC = "tower:20,1024,131072"
TRANSLATE_SAMPLES = 5000


def target_size(group: str, k: int) -> int:
    """The smallest admissible family size: just above the 2pn member cap."""
    n = checks.carrier(group).order
    return math.floor(2 * checks.sample_probability(n, k) * n) + 1


def construct_config(group: str, k: int, l: int | None, seed: int, mode: str) -> dict:
    return {
        "command": "covering construct",
        "group": group,
        "k": k,
        "l": l,
        "seed": seed,
        "max_attempts": 100,
        "mode": mode,
        "threads": 1,
        "out": None,
    }


def verify_config(path: str) -> dict:
    return {"command": "covering verify", "in": path, "mode": "auto", "seed": 0, "threads": 1, "out": None}


def exact_config(group: str, k: int) -> dict:
    return {"command": "covering exact-cov", "group": group, "k": k, "out": None}


def tower_build_config(seed: int) -> dict:
    return {
        "command": "tower build",
        "spec": TOWER_SPEC,
        "seed": seed,
        "max_attempts": 100,
        "mode": "auto",
        "threads": 1,
        "claim3_samples": 100,
        "out": None,
    }


def tower_translate_config(path: str, seed: int) -> dict:
    return {
        "command": "tower translate",
        "spec": None,
        "seed": seed,
        "samples": TRANSLATE_SAMPLES,
        "depth": None,
        "fullness": 1.0,
        "in": path,
        "thin": None,
        "out": None,
    }


def label_problems(doc: dict, mode: str) -> list[str]:
    """The construction's verification label says what was asked for."""
    record = doc["verification"]
    if mode.startswith("sampled:"):
        if record["mode"] != "sampled" or record["trials"] != int(mode.split(":")[1]):
            return [f"asked for {mode}, document says {record['mode']}/{record['trials']}"]
    elif checks.carrier(doc["group"]).order ** doc["k"] <= checks.STEP_BUDGET:
        if record["mode"] != "exhaustive":
            return [f"{mode} chose {record['mode']} within the step budget"]
    if record["result"] is not True:
        return ["the construction's own verification failed"]
    return []


class Round:
    """One round of a workload: timed commands, their checks and failures."""

    def __init__(self, covtrans_cli, out_dir: Path, sampler):
        self.cli = covtrans_cli
        self.out_dir = out_dir
        self.sampler = sampler
        self.times: dict[str, float] = defaultdict(float)
        self.marks: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.command_times: dict[str, float] = defaultdict(float)
        self.problems: dict[str, list[str]] = {}

    def command(self, bucket: str, label: str, config: dict, check) -> tuple[dict | None, str | None]:
        """Run one command; returns (document, written path) or (None, None) on failure."""
        problems = self.problems.setdefault(label, [])
        if config is None:
            problems.append("its input document was not produced")
            return None, None
        mark = self.sampler.mark()
        start = time.perf_counter()
        try:
            text, code = self.cli.run_config(config)
        except Exception as exc:  # any error fails this one operation, not the run
            self.times[bucket] += time.perf_counter() - start
            self.marks[bucket].append((mark, self.sampler.mark()))
            problems.append(f"{type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        self.times[bucket] += elapsed
        self.marks[bucket].append((mark, self.sampler.mark()))
        self.command_times[config["command"]] += elapsed
        doc = json.loads(text)
        problems.extend(check(doc, code))
        path = self.out_dir / f"{label}.json"
        path.write_text(text, encoding="utf-8")
        return doc, str(path)

    def rerun(self, label: str, path: str | None) -> None:
        """`rerun_document` must reproduce the written document byte for byte."""
        if path is None:
            return
        text = Path(path).read_text(encoding="utf-8")
        if self.cli.rerun_document(json.loads(text)) != text:
            self.problems[label].append("rerun_document did not reproduce the document")

    def slowdown(self, bucket: str) -> float:
        return self.sampler.slowdown(self.marks[bucket])

    def reference_time(self, bucket: str) -> float:
        """The bucket's wall time at the sampler's reference CPU speed."""
        return self.times[bucket] / self.slowdown(bucket)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for found in self.problems.values() if found)


def _code_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def _verify(rnd: Round, label: str, source: dict | None, path: str | None) -> None:
    config = verify_config(path) if path else None
    rnd.command(
        "recheck",
        f"verify-{label}",
        config,
        lambda verdict, code: checks.check_verdict(verdict, code, source),
    )


def _construct(rnd: Round, rng: random.Random, group: str, l: int | None, mode: str):
    """`covering construct` of a 2-cover (l is None) or of a family enlarged to l."""
    label = f"{'cover' if l is None else 'family'}-{group}"

    def check(doc, code):
        found = _code_ok(code) + label_problems(doc, mode)
        if l is None:
            return found + checks.check_cover_doc(doc)
        return found + checks.check_family_doc(doc, l)

    config = construct_config(group, 2, l, rng.randrange(2**31), mode)
    doc, path = rnd.command("make", label, config, check)
    return label, doc, path


def cyclic_certify(rnd: Round, rng: random.Random, prepared: dict) -> tuple[str, str | None]:
    for n in CYCLIC_ORDERS:
        group = f"C{n}"
        made = [
            _construct(rnd, rng, group, None, "auto"),
            _construct(rnd, rng, group, target_size(group, 2), "auto"),
        ]
        for label, doc, path in made:
            _verify(rnd, label, doc, path)
        if n == CYCLIC_ORDERS[0]:
            rerun = made[0][0], made[0][2]  # the C1024 cover
    return rerun


def noncyclic_certify(rnd: Round, rng: random.Random, prepared: dict) -> tuple[str, str | None]:
    for group in EXACT_GROUPS:
        for k in (1, 2):
            rnd.command(
                "make",
                f"exact-{group}-k{k}",
                exact_config(group, k),
                lambda doc, code: _code_ok(code) + checks.check_exact_doc(doc, prepared),
            )
    made = [
        _construct(rnd, rng, group, target_size(group, 2) if shape == "family" else None, mode)
        for group, shape, mode in NONCYCLIC_CONSTRUCTS
    ]
    for label, doc, path in made:
        _verify(rnd, label, doc, path)
    return made[2][0], made[2][2]  # the D60 family


def deep_tower(rnd: Round, rng: random.Random, prepared: dict) -> tuple[str, str | None]:
    tower, tower_path = rnd.command(
        "make",
        "tower",
        tower_build_config(rng.randrange(2**31)),
        lambda doc, code: _code_ok(code) + checks.check_tower_doc(doc),
    )
    config = tower_translate_config(tower_path, rng.randrange(2**31)) if tower_path else None
    _, path = rnd.command(
        "recheck",
        "translate",
        config,
        lambda doc, code: _code_ok(code)
        + checks.check_translation_doc(doc, tower, TRANSLATE_SAMPLES),
    )
    return "translate", path


def prepare_noncyclic() -> dict:
    """Least |X| with X^-1 X = G for each exact-cov group, by independent search."""
    return {g: len(checks.least_quotient_cover(checks.carrier(g))) for g in EXACT_GROUPS}


# name -> (round function, independent reference data computed once per run)
WORKLOADS = {
    "cyclic-certify": (cyclic_certify, dict),
    "deep-tower": (deep_tower, dict),
    "noncyclic-certify": (noncyclic_certify, prepare_noncyclic),
}
