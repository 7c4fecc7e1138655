"""Planted mutants of src/covtrans, each with the tests that must kill it.

Run from the repository root; it needs only the standard library and the
test suite's own dependencies, and pytest does not collect it:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 7      # the mutants at these list indices

For each entry the script copies src/, tests/ and pyproject.toml into a
temporary directory, replaces the entry's old text, which must occur
exactly once in its file, and runs pytest on the entry's test ids there.
A mutant is killed when those tests fail (pytest exits 1) or cannot be
collected (exit 2).  The script reports every old text that no longer
matches exactly once, every mutant that survives, and every entry whose
test ids pytest cannot find; it exits 0 only when every mutant is killed.

A mutant that survives stays on the list: it names a gap in the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/covtrans
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    what: str


SUBSETS = "tests/test_subsets.py::"
COVERING = "tests/test_covering.py::"
CLI = "tests/test_cli.py::"
TOWER = "tests/test_tower.py::"
WINDOWS = "tests/test_window_properties.py::"

MUTANTS = [
    # random_subset's lanes and uniform_draws' range test
    Mutant(
        "subsets.py",
        "math.ceil(p * (1 << 53))",
        "math.floor(p * (1 << 53))",
        (SUBSETS + "test_random_subset_on_real_word_ties",),
        "the lane bias rounds down, so a draw equal to p counts as below it",
    ),
    Mutant(
        "subsets.py",
        "words >> 38 & b_mask",
        "words >> 37 & b_mask",
        (SUBSETS + "test_random_subset_on_real_word_ties",),
        "the low 26 bits of a draw are read one bit off",
    ),
    Mutant(
        "subsets.py",
        '.to_bytes(8 * lanes, "little")[::8]',
        '.to_bytes(8 * lanes, "little")[1::8]',
        (SUBSETS + "test_random_subset_matches_the_per_element_loop",),
        "the member flags are read from byte 1 of each lane",
    ),
    Mutant(
        "subsets.py",
        "lanes = min(_LANES, n - start)",
        "lanes = min(_LANES, n - start + 1)",
        (SUBSETS + "test_random_subset_matches_the_per_element_loop",),
        "the last batch decides one lane too many",
    ),
    Mutant(
        "subsets.py",
        "(tops >> 64 * (_LANES - lanes))",
        "(tops >> 64 * (_LANES - lanes - 1))",
        (SUBSETS + "test_random_subset_matches_the_per_element_loop",),
        "the last batch's thresholds are shifted by one lane fewer",
    ),
    Mutant(
        "covering.py",
        "islice(iter_set_bits(comp), need - 1, None)",
        "islice(iter_set_bits(comp), need, None)",
        (
            COVERING + "test_enlarge_to_matches_adding_the_least_non_member_one_at_a_time",
            COVERING + "test_construct_family_enlargement",
        ),
        "enlargement adds one non-member too many",
    ),
    Mutant(
        "covering.py",
        "comp & ((2 << last) - 1)",
        "comp & ((1 << last) - 1)",
        (
            COVERING + "test_enlarge_to_matches_adding_the_least_non_member_one_at_a_time",
            COVERING + "test_construct_family_enlargement",
        ),
        "enlargement stops one non-member short",
    ),
    Mutant(
        "util.py",
        "if width >= 32:",
        "if width > 32:",
        (SUBSETS + "test_uniform_draws_equal_randrange",),
        "32-bit draws take the lane path, whose lanes cannot hold them",
    ),
    Mutant(
        "util.py",
        "(1 << width) + n - 1",
        "(1 << width) + n",
        (
            SUBSETS + "test_uniform_draws_equal_randrange",
            SUBSETS + "test_uniform_draws_reject_a_word_equal_to_n_shifted",
        ),
        "a candidate equal to n is kept",
    ),
    # one claim per k-covering certificate
    Mutant(
        "covering.py",
        "tuple(sorted({group.inv(g) for g in gs}))",
        "tuple(sorted(set(gs)))",
        (
            COVERING + "test_sampled_covering_check_reports_a_planted_union_miss_on_c131072",
            CLI + "test_covering_verify_samples_a_cover_by_its_translators",
        ),
        "a failing trial reports its translators instead of their inverses",
    ),
    Mutant(
        "covering.py",
        "lambda xs, s: verify_k_covering(_union(xs), k, mode, seed=s)",
        "lambda xs, s: verify_intersecting(xs, mode, seed=s)",
        (CLI + "test_budget_exceeded_exit_code",),
        "a cover is accepted by its family's intersecting check again",
    ),
    Mutant(
        "covering.py",
        "fits = k == 1 or steps",
        "fits = steps",
        (CLI + "test_k1_covers_stay_exhaustive_above_ten_thousand",),
        "the k = 1 check counts n steps, so a budget below n samples it",
    ),
    Mutant(
        "covering.py",
        "steps = min(n**k, n * math.comb(n, k))",
        "steps = n * math.comb(n, k)",
        (
            COVERING + "test_k2_label_rule_above_the_pairwise_limit",
            COVERING + "test_k3_covers_are_budgeted_as_their_k_fold_family",
        ),
        "the covering check is budgeted C(n,k) n steps, above the family's n^k",
    ),
    Mutant(
        "covering.py",
        "record = check(subsets, derive_seed(seed, attempt, _VERIFY_SALT))",
        "record = check(subsets, derive_seed(seed, attempt + 1, _VERIFY_SALT))",
        (
            COVERING + "test_a_rejected_cover_shows_the_seed_of_its_check",
            CLI + "test_a_sampled_certificate_is_rerun_from_its_document",
            TOWER + "test_stage_records_are_rerun_from_the_document",
        ),
        "the accepting check is seeded by the next attempt, so covering verify cannot repeat it",
    ),
    Mutant(
        "subsets.py",
        "shifts = [mul(g1, inv(g)) for g in gs[1:]]",
        "shifts = [mul(inv(g), g1) for g in gs[1:]]",
        (COVERING + "test_sampled_meet_test_matches_full_translates",),
        "the non-rotation scan shifts by g_i^{-1} g_1, a left translate",
    ),
    Mutant(
        "cli.py",
        "    if config.get(\"in\"):\n"
        "        spec = _load_or_build_tower(config).spec\n"
        "    else:\n"
        "        spec = _tower_spec(config)\n"
        "        _require_admissible(spec)\n",
        "    spec = _load_or_build_tower(config).spec\n",
        (CLI + "test_tower_dim_reads_a_spec_without_building_it",),
        "tower dim --spec builds the tower it never reads",
    ),
    # a tower stage keeps only what a build cannot re-derive
    Mutant(
        "cli.py",
        'return build_tower(_tower_spec(config), config["seed"], claim3_samples=0)',
        'spec = _tower_spec(config)\n'
        '    _require_admissible(spec)\n'
        '    return build_tower(spec, config["seed"], claim3_samples=0)',
        (CLI + "test_tower_commands_check_a_spec_once",),
        "tower translate --spec checks admissibility before build_tower checks it again",
    ),
    Mutant(
        "tower.py",
        '_require_same_fields(mine, given, f"stage {s}", ("cover",))',
        '_require_same_fields(mine, given, f"stage {s}", ("cover", "seed"))',
        (TOWER + "test_loaded_tower_refuses_a_stage_seed_or_count_no_build_emits",),
        "a stage's seed is not compared, so a stored seed is trusted over the derived one",
    ),
    Mutant(
        "tower.py",
        "        return 0, None\n",
        '        return doc_field(stage_doc, "attempts", int, where), None\n',
        (TOWER + "test_loaded_tower_refuses_a_stage_seed_or_count_no_build_emits",),
        "stage 1's attempts are read from the document, so a count it never takes loads",
    ),
    Mutant(
        "tower.py",
        "    if attempts < 1:\n"
        "        raise IntegrityError(f\"{where}: field 'attempts' must be >= 1, got {attempts}\")\n",
        "",
        (TOWER + "test_loaded_tower_refuses_a_stage_seed_or_count_no_build_emits",),
        "a later stage's attempts below 1 load, with no attempt to re-run its record from",
    ),
    Mutant(
        "covering.py",
        "for s in subsets[1:]:\n        s._require_same_carrier(subsets[0].group)",
        "for s in subsets[1:2]:\n        s._require_same_carrier(subsets[0].group)",
        (COVERING + "test_verify_intersecting_refuses_a_member_on_another_carrier",),
        "verify_intersecting checks only the second member against the first's carrier",
    ),
    Mutant(
        "subsets.py",
        "    if type(rng) is not random.Random:\n"
        "        raise TypeError(f\"random_subset needs a random.Random, got {type(rng).__name__}\")\n",
        "",
        (SUBSETS + "test_random_subset_refuses_any_other_generator",),
        "a generator other than a plain random.Random is read through the lanes",
    ),
    # quarter-size rotation windows
    Mutant(
        "subsets.py",
        "first_bytes[a >> 3 : (a + ROTATION_WINDOW) >> 3]",
        "first_bytes[a >> 3 : ((a + ROTATION_WINDOW) >> 3) - 1]",
        (
            COVERING + "test_meet_test_finds_one_common_element_at_window_edges",
            WINDOWS + "test_translates_meet_matches_full_rotation",
        ),
        "the scan reads each window of X_1 one byte short",
    ),
    Mutant(
        "subsets.py",
        "acc = (1 << min(ROTATION_WINDOW, n - a)) - 1",
        "acc = (1 << min(ROTATION_WINDOW - 1, n - a)) - 1",
        (SUBSETS + "test_windowed_translate_into_matches_full_rotation",),
        "translate_into never tries the last translator of a full window",
    ),
    Mutant(
        "subsets.py",
        "span = _TABLE_STEP >> 3, (ROTATION_WINDOW + _TABLE_STEP) >> 3",
        "span = _TABLE_STEP >> 3, ROTATION_WINDOW >> 3",
        (
            WINDOWS + "test_window_table_reads_match_byte_slices_and_full_rotations",
            SUBSETS + "test_windowed_translate_into_matches_full_rotation",
        ),
        "a table entry holds one window, so a read shifted into it comes up short",
    ),
    # a set names its own carrier, and the satellites that rode along
    Mutant(
        "covering.py",
        "lower = n ** (1.0 - 1.0 / k) if k <= n else 0.0",
        "lower = n ** (1.0 - 1.0 / k)",
        (
            COVERING + "test_exact_covering_meets_the_lower_bound_past_k_equal_n",
            CLI + "test_exact_cov_and_bounds_past_k_equal_n",
        ),
        "the lower bound stays n^(1-1/k) past k = n, above the exact value 0",
    ),
    Mutant(
        "tower.py",
        "        if u is None:\n"
        "            raise SoundnessError(\n"
        "                f\"stage {s}: offsets {offsets} have no translate into the \"\n"
        "                f\"{s}-cover of size {cover.size}; the cover's verification was \"\n"
        "                f\"{stage.verification.mode if stage.verification else 'trivial'}\"\n"
        "            )\n",
        "",
        (CLI + "test_tower_translate_refuses_a_lift_into_a_cover_it_does_not_reprove",),
        "the lift goes on past an offset set with no translate into the cover",
    ),
    Mutant(
        "util.py",
        'bool: lambda b: "true" if b else "false",',
        "bool: int.__repr__,",
        (TOWER + "test_canonical_json_matches_the_reference_emitter",),
        "a bool is emitted as the int 1 or 0",
    ),
    Mutant(
        "cli.py",
        '(BudgetExceededError, "budget exceeded", EXIT_BUDGET_EXCEEDED),',
        '(BudgetExceededError, "budget exceeded", EXIT_ATTEMPTS_EXHAUSTED),',
        (
            CLI + "test_each_failure_exits_with_its_code_and_prefix",
            CLI + "test_budget_exceeded_exit_code",
        ),
        "an over-budget check exits 4, the code of exhausted attempts",
    ),
]


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived', 'unmatched (count)' or 'tests not found (exit)' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="covtrans-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        path = work / "src" / "covtrans" / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return f"unmatched ({count} matches)"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("COVTRANS_BUDGET", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
        )
    if proc.returncode in (1, 2):
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"tests not found (pytest exit {proc.returncode})"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] if argv else range(len(MUTANTS))
    bad = 0
    for index in chosen:
        mutant = MUTANTS[index]
        verdict = run_mutant(mutant)
        bad += verdict != "killed"
        print(f"{index:3d} {verdict:10s} {mutant.file}: {mutant.what}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
