"""Negative controls for the benchmark's checkers, and tracing transparency.

Run from the repository root:

    python3 -m unittest bench/test_bench.py

Each checker must reject a document broken in the way it exists to catch,
and a traced run must emit the same bytes as an untraced one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out" / "test"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from covtrans import cli  # noqa: E402
from covtrans.tower import tower_from_document  # noqa: E402

CARRIERS = ("C7", "D4", "EA(2,3)", "C2xC4", "S3", "C13")


def _run(config: dict) -> dict:
    text, code = cli.run_config(config)
    assert code == 0, text
    return json.loads(text)


def _write(name: str, doc_text: str) -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(doc_text, encoding="utf-8")
    return str(path)


class CoverCheckerTest(unittest.TestCase):
    def test_minimal_cover_minus_one_element_misses(self):
        for name in CARRIERS:
            group = checks.carrier(name)
            cover = checks.least_quotient_cover(group)
            self.assertTrue(checks.quotient_covers(group, cover, cover), name)
            for x in cover:
                rest = [y for y in cover if y != x]
                self.assertFalse(checks.quotient_covers(group, rest, rest), (name, x))

    def test_cover_document_with_an_element_removed_is_rejected(self):
        for name, elements in (("C7", [0, 1, 3]), ("C13", [0, 1, 3, 9])):
            n = checks.carrier(name).order
            doc = {
                "kind": "k-covering",
                "group": name,
                "k": 2,
                "p": checks.sample_probability(n, 2),
                "sizes": [len(elements) - 1, len(elements) - 1],
                "size": len(elements),
                "elements": elements,
            }
            self.assertEqual(checks.check_cover_doc(doc), [])
            broken = dict(doc, elements=elements[:-1], size=len(elements) - 1)
            self.assertIn("X^-1 X misses an element of the group", checks.check_cover_doc(broken))

    def test_real_cover_and_family_pass(self):
        cover = _run(workloads.construct_config("C1024", 2, None, 7, "auto"))
        self.assertEqual(checks.check_cover_doc(cover), [])
        l = workloads.target_size("D60", 2)
        family = _run(workloads.construct_config("D60", 2, l, 7, "auto"))
        self.assertEqual(checks.check_family_doc(family, l), [])
        broken = copy.deepcopy(family)
        broken["p"] *= 1.01
        self.assertTrue(checks.check_family_doc(broken, l))

    def test_exact_value_must_match_independent_search(self):
        least = {"C7": 3}
        doc = {"group": "C7", "k": 2, "value": 3}
        self.assertEqual(checks.check_exact_doc(doc, least), [])
        self.assertTrue(checks.check_exact_doc(dict(doc, value=4), least))
        self.assertTrue(checks.check_exact_doc(dict(doc, k=1, value=2), least))


class TowerCheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        config = dict(workloads.tower_build_config(3), spec="tower:20,1024")
        text, _ = cli.run_config(config)
        cls.tower = json.loads(text)
        path = _write("tower.json", text)
        cls.translation = _run(dict(workloads.tower_translate_config(path, 5), samples=200))

    def test_real_documents_pass(self):
        self.assertEqual(checks.check_tower_doc(self.tower), [])
        self.assertEqual(checks.check_translation_doc(self.translation, self.tower, 200), [])

    def test_flipped_cover_element_is_rejected(self):
        result = self.translation["results"][0]
        orders = checks.TowerMembership(self.tower).orders
        depth = self.translation["depth"]
        x = (result["translator"] + result["elements"][0]) % orders[depth]
        used = x // orders[depth - 1]
        flipped = copy.deepcopy(self.tower)
        flipped["stages"][depth - 1]["cover"].remove(used)
        self.assertTrue(checks.check_translation_doc(self.translation, flipped, 200))
        self.assertTrue(checks.check_tower_doc(flipped))

    def test_measure_bound_is_enforced(self):
        grown = copy.deepcopy(self.tower)
        stage = grown["stages"][0]  # |X_1| * 2 <= 20 allows at most 10 elements
        stage["cover"] = list(range(11))
        stage["cover_size"] = stage["set_size"] = 11
        self.assertTrue(any("breaks" in p for p in checks.check_tower_doc(grown)))

    def test_perturbed_translator_is_rejected(self):
        tower = tower_from_document(self.tower)
        top = checks.TowerMembership(self.tower).orders[-1]
        for index, result in enumerate(self.translation["results"]):
            g = (result["translator"] + 1) % top
            if not all(tower.member(tower.depth, (g + y) % top) for y in result["elements"]):
                break
        else:
            self.fail("every translator+1 also works; no perturbation to test")
        perturbed = copy.deepcopy(self.translation)
        perturbed["results"][index]["translator"] = g
        problems = checks.check_translation_doc(perturbed, self.tower, 200)
        self.assertEqual(len(problems), 1)


class TracingTest(unittest.TestCase):
    def test_traced_documents_are_byte_identical(self):
        tower_text, _ = cli.run_config(dict(workloads.tower_build_config(3), spec="tower:20,1024"))
        tower_path = _write("tower-trace.json", tower_text)
        l = workloads.target_size("D60", 2)
        family_text, _ = cli.run_config(workloads.construct_config("D60", 2, l, 3, "auto"))
        family_path = _write("family-trace.json", family_text)
        configs = [
            workloads.construct_config("C1024", 2, None, 3, "auto"),
            workloads.construct_config("S5", 2, workloads.target_size("S5", 2), 3, "auto"),
            workloads.verify_config(family_path),
            workloads.exact_config("C2xC4", 2),
            dict(workloads.tower_build_config(3), spec="tower:20,1024"),
            dict(workloads.tower_translate_config(tower_path, 3), samples=50),
        ]
        untraced = [cli.run_config(c) for c in configs]
        original = cli.run_config
        with tracing.Tracer() as tracer:
            traced = [cli.run_config(c) for c in configs]
        self.assertEqual(traced, untraced)
        self.assertIs(cli.run_config, original)
        layers = tracer.per_layer(1)
        self.assertEqual(layers["cli.run_config.calls"], len(configs))
        for name in tracing.BOUNDARIES:
            self.assertGreater(layers[f"{name}.calls"], 0, name)
            self.assertGreaterEqual(layers[f"{name}.s"], layers[f"{name}.self_s"] - 1e-9, name)


class SpeedSamplerTest(unittest.TestCase):
    def test_samples_while_running_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with speed.SpeedSampler() as sampler:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                speed.calibration_workload()
            caught = sampler.mark()
        self.assertGreaterEqual(caught, 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertGreater(sampler.slowdown([(0, caught)]), 0)
        self.assertEqual(sampler.mark(), caught)


class RefusalTest(unittest.TestCase):
    def _run_bench(self, cwd: Path, env: dict) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "deep-tower", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_refuses_without_the_program(self):
        bare = OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        for name in ("run.py", "checks.py", "tracing.py", "workloads.py"):
            shutil.copy(BENCH_DIR / name, bare / "bench" / name)
        proc = self._run_bench(bare, dict(os.environ))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_refuses_with_a_step_budget_set(self):
        proc = self._run_bench(ROOT, dict(os.environ, COVTRANS_BUDGET="1000"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
