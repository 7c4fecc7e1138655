import csv
import io
import json

import pytest
from conftest import (
    assert_same_text,
    full_translate_sampled_covering,
    full_translate_sampled_intersecting,
    naive_untranslatable_test,
)

from covtrans import CyclicGroup, GroupSubset, TowerSpec, cli, group_from_descriptor
import covtrans.tower as tower_module
from covtrans.cli import (
    EXIT_ATTEMPTS_EXHAUSTED,
    EXIT_BUDGET_EXCEEDED,
    EXIT_INFEASIBLE,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
    rerun_document,
    run_config,
)
from covtrans.covering import _VERIFY_SALT, VerificationRecord
from covtrans.tower import FactoredSubset, Tower, TowerStage
from covtrans.util import canonical_json, derive_seed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_covering_certificate(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "7",
        "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["kind"] == "k-covering"
    assert doc["size"] <= 512
    assert doc["verification"]["result"] is True
    assert doc["config"]["command"] == "covering construct"


def test_construct_family_with_target_size(capsys):
    code, stdout, _ = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "7",
        "--l", "512",
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["kind"] == "intersecting-family"
    assert doc["sizes"] == [512, 512]
    assert all(len(s) == 512 for s in doc["subsets"])


def test_construct_k1_trivially_verifies(capsys):
    code, stdout, _ = run(
        capsys, "covering", "construct", "--group", "C512", "--k", "1", "--seed", "2"
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["size"] > 0 and doc["verification"]["result"] is True


def test_threads_flag_is_an_accepted_no_op(capsys, tmp_path):
    docs = {}
    for threads in ("1", "2"):
        code, stdout, _ = run(
            capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "3",
            "--threads", threads,
        )
        assert code == EXIT_OK
        docs[threads] = json.loads(stdout)
    assert docs["2"]["config"].pop("threads") == 2
    assert docs["1"]["config"].pop("threads") == 1
    assert docs["1"] == docs["2"]
    cert = tmp_path / "cert.json"
    cert.write_text(stdout)
    code, _, _ = run(capsys, "covering", "verify", "--in", str(cert), "--threads", "2")
    assert code == EXIT_OK


def test_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "covering", "construct", "--group", "C3", "--k", "3", "--seed", "1")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_attempts_exhausted_exit_code(capsys):
    # seed 6 draws an empty set on its only attempt at (n, k, l) = (5, 1, 5)
    code, _, err = run(
        capsys, "covering", "construct", "--group", "C5", "--k", "1", "--l", "5",
        "--seed", "6", "--max-attempts", "1",
    )
    assert code == EXIT_ATTEMPTS_EXHAUSTED
    assert "attempts" in err


def test_budget_exceeded_exit_code(capsys, monkeypatch):
    # a cover is accepted by its own k = 2 check, whose quotient set is
    # complete at any budget up to n = 10^4, so the refusal needs n above it
    monkeypatch.setenv("COVTRANS_BUDGET", "100")
    code, _, err = run(
        capsys, "covering", "construct", "--group", "C10007", "--k", "2", "--seed", "1",
        "--mode", "exhaustive",
    )
    assert code == EXIT_BUDGET_EXCEEDED
    assert "sampled" in err
    code, stdout, _ = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "1",
        "--mode", "exhaustive",
    )
    assert code == EXIT_OK
    assert json.loads(stdout)["verification"]["mode"] == "exhaustive"


@pytest.mark.parametrize(
    "budget, reason", [("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0")]
)
def test_a_malformed_budget_is_a_usage_error(capsys, monkeypatch, budget, reason):
    monkeypatch.setenv("COVTRANS_BUDGET", budget)
    code, stdout, err = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "1"
    )
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"error: COVTRANS_BUDGET {reason}\n"


def test_k1_covers_stay_exhaustive_above_ten_thousand(capsys, tmp_path, monkeypatch):
    # the k = 1 scan reads no table, so it fits any budget: the cover is
    # proven when built, and again by covering verify in auto and exhaustive,
    # also under a budget below n
    out = tmp_path / "cover.json"
    code, _, _ = run(
        capsys, "covering", "construct", "--group", "C20000", "--k", "1", "--seed", "3",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["verification"]["mode"] == "exhaustive"
    for budget, mode in ((None, "auto"), (None, "exhaustive"), ("1000", "auto")):
        if budget is not None:
            monkeypatch.setenv("COVTRANS_BUDGET", budget)
        code, stdout, _ = run(capsys, "covering", "verify", "--in", str(out), "--mode", mode)
        assert code == EXIT_OK
        assert json.loads(stdout)["verification"] == {
            "mode": "exhaustive", "trials": None, "result": True, "witness": None,
        }


def test_covering_verify_samples_a_cover_by_its_translators(capsys, tmp_path):
    # a sampled re-check of a k-covering document: a pass runs every trial,
    # and a failing trial reports an untranslatable Y, the inverses of its translators
    out = tmp_path / "cover.json"
    code, _, _ = run(
        capsys, "covering", "construct", "--group", "C32xC32", "--k", "2", "--seed", "7",
        "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    code, stdout, _ = run(
        capsys, "covering", "verify", "--in", str(out), "--mode", "sampled:300", "--seed", "5"
    )
    assert code == EXIT_OK
    assert json.loads(stdout)["verification"] == {
        "mode": "sampled", "trials": 300, "result": True, "witness": None,
    }
    group = group_from_descriptor("C32xC32")
    thinned = doc["elements"][::4]  # fails at the 8th trial
    broken = tmp_path / "thinned.json"
    broken.write_text(json.dumps(dict(doc, elements=thinned, size=len(thinned))))
    code, stdout, _ = run(
        capsys, "covering", "verify", "--in", str(broken), "--mode", "sampled:300", "--seed", "5"
    )
    record = json.loads(stdout)["verification"]
    want = full_translate_sampled_covering(
        group, GroupSubset.from_indices(group, thinned), 2, 300, 5
    )
    assert (code, record["mode"]) == (EXIT_VERIFY_FAILED, "sampled")
    assert (record["result"], record["trials"], tuple(record["witness"])) == want
    assert naive_untranslatable_test(group, thinned)(record["witness"])


def test_a_sampled_certificate_is_rerun_from_its_document(capsys, tmp_path):
    # the check that accepted the cover is seeded by the certificate's seed
    # and attempts, so covering verify repeats its record exactly
    out = tmp_path / "cover.json"
    code, _, _ = run(
        capsys, "covering", "construct", "--group", "S7", "--k", "2", "--seed", "7",
        "--mode", "sampled:500", "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    check_seed = derive_seed(doc["seed"], doc["attempts"] - 1, _VERIFY_SALT)
    code, stdout, _ = run(
        capsys, "covering", "verify", "--in", str(out), "--seed", str(check_seed),
        "--mode", "sampled:500",
    )
    assert code == EXIT_OK
    assert doc["verification"]["mode"] == "sampled"
    assert json.loads(stdout)["verification"] == doc["verification"]


def test_covering_verify_samples_a_family_across_windows(capsys, tmp_path):
    # A sampled family on C4099, whose sets span four window edges, made and
    # re-checked through the CLI, then thinned until a trial fails: both
    # records and the failing witness are the full-translate loop's.
    out = tmp_path / "family.json"
    code, _, _ = run(
        capsys, "covering", "construct", "--group", "C4099", "--k", "2", "--l", "534",
        "--seed", "3", "--mode", "sampled:200", "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    group = group_from_descriptor("C4099")

    def sampled(member_lists, seed):
        subsets = [GroupSubset.from_indices(group, m) for m in member_lists]
        return full_translate_sampled_intersecting(group, subsets, 200, seed)

    def record(result, trials, witness):
        witness = list(witness) if witness else None
        return {"mode": "sampled", "trials": trials, "result": result, "witness": witness}

    check_seed = derive_seed(doc["seed"], doc["attempts"] - 1, _VERIFY_SALT)
    assert doc["verification"] == record(*sampled(doc["subsets"], check_seed))
    code, stdout, _ = run(
        capsys, "covering", "verify", "--in", str(out), "--mode", "sampled:200", "--seed", "3"
    )
    assert code == EXIT_OK
    assert json.loads(stdout)["verification"] == record(*sampled(doc["subsets"], 3))

    thinned = [members[::3] for members in doc["subsets"]]  # fails at the 73rd trial
    broken = tmp_path / "thinned.json"
    broken.write_text(json.dumps(dict(doc, subsets=thinned, sizes=[len(m) for m in thinned])))
    code, stdout, _ = run(
        capsys, "covering", "verify", "--in", str(broken), "--mode", "sampled:200", "--seed", "3"
    )
    want = sampled(thinned, 3)
    assert (code, want[:2]) == (EXIT_VERIFY_FAILED, (False, 73))
    assert json.loads(stdout)["verification"] == record(*want)
    translates = [{group.mul(x, g) for x in m} for m, g in zip(thinned, want[2])]
    assert not translates[0] & translates[1]


def test_parse_error_names_token(capsys):
    code, _, err = run(capsys, "covering", "construct", "--group", "Q8", "--k", "2", "--seed", "1")
    assert code == EXIT_USAGE
    assert "Q8" in err
    for token in ("turbo", "sampled:0", "sampled:x"):
        code, stdout, err = run(
            capsys, "covering", "construct", "--group", "C64", "--k", "2", "--seed", "1",
            "--mode", token,
        )
        assert (code, stdout) == (EXIT_USAGE, "")
        assert f"'{token}'" in err


def test_sampled_mode_records_its_trial_count(capsys):
    code, stdout, _ = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "7",
        "--mode", "sampled:7",
    )
    assert code == EXIT_OK
    verification = json.loads(stdout)["verification"]
    assert (verification["mode"], verification["trials"]) == ("sampled", 7)


def test_verify_roundtrip_and_failures(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "covering", "construct", "--group", "C256", "--k", "2", "--seed", "5",
        "--l", "130", "--out", str(cert),
    )
    assert code == EXIT_OK
    code, stdout, _ = run(capsys, "covering", "verify", "--in", str(cert))
    assert code == EXIT_OK
    assert json.loads(stdout)["verification"]["result"] is True

    # consistent but wrong: shrink one member to a singleton -> must fail with witness
    doc = json.loads(cert.read_text())
    doc["subsets"][0] = [0]
    doc["sizes"][0] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "covering", "verify", "--in", str(bad))
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(stdout)["verification"]["witness"] is not None

    # inconsistent size field -> integrity error
    doc2 = json.loads(cert.read_text())
    doc2["subsets"][0] = doc2["subsets"][0][1:]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc2))
    code, _, err = run(capsys, "covering", "verify", "--in", str(tampered))
    assert code == EXIT_INTEGRITY and "integrity" in err


def test_verify_empty_set_certificate(capsys, tmp_path):
    doc = {
        "kind": "k-covering",
        "group": "C8",
        "k": 1,
        "p": 0.5,
        "seed": 0,
        "attempts": 1,
        "sizes": [0],
        "size": 0,
        "size_bound": 4.0,
        "elements": [],
        "verification": {"mode": "exhaustive", "trials": None, "result": True, "witness": None},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "covering", "verify", "--in", str(path))
    assert code == EXIT_VERIFY_FAILED  # stored verdict is ignored, re-check fails


def run_on_document(capsys, tmp_path, doc, *argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run(capsys, *argv, "--in", str(path))


def test_verify_names_a_missing_or_mistyped_field(capsys, tmp_path):
    code, stdout, err = run_on_document(
        capsys, tmp_path, {"kind": "k-covering", "group": "C8"}, "covering", "verify"
    )
    assert (code, stdout) == (EXIT_INTEGRITY, "")
    assert err == "integrity error: document: missing field 'k'\n"
    doc = {"kind": "k-covering", "group": "C8", "k": 1, "elements": "0,1", "size": 2}
    code, _, err = run_on_document(capsys, tmp_path, doc, "covering", "verify")
    assert code == EXIT_INTEGRITY and "field 'elements' has type str" in err
    doc.update(elements=[2, 2], size=1)
    code, _, err = run_on_document(capsys, tmp_path, doc, "covering", "verify")
    assert err == "integrity error: field 'elements' lists duplicate elements\n"


def test_verify_refuses_an_unknown_group_as_a_document_fault(capsys, tmp_path):
    doc = {"kind": "k-covering", "group": "Q8", "k": 2, "elements": [0], "size": 1}
    code, stdout, err = run_on_document(capsys, tmp_path, doc, "covering", "verify")
    assert (code, stdout) == (EXIT_INTEGRITY, "")
    assert "field 'group'" in err and "Q8" in err


def test_verify_refuses_a_bool_in_a_covering_set(capsys, tmp_path):
    # JSON true is not index 1, alone or next to a 1 (not "duplicate elements")
    for elements in ([True], [0, True], [1, True]):
        doc = {"kind": "k-covering", "group": "C8", "k": 1, "elements": elements, "size": 2}
        code, stdout, err = run_on_document(capsys, tmp_path, doc, "covering", "verify")
        assert (code, stdout) == (EXIT_INTEGRITY, "")
        assert err == "integrity error: field 'elements': entry true has type bool\n"


def test_verify_refuses_a_bool_in_a_family_member(capsys, tmp_path):
    doc = {
        "kind": "intersecting-family", "group": "C8", "k": 2,
        "subsets": [[0, 1], [False, 2]], "sizes": [2, 2],
    }
    code, stdout, err = run_on_document(capsys, tmp_path, doc, "covering", "verify")
    assert (code, stdout) == (EXIT_INTEGRITY, "")
    assert err == "integrity error: field 'subsets' list 2: entry false has type bool\n"


def test_tower_commands_refuse_a_bool_in_a_cover(capsys, tmp_path):
    _, text, _ = run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3")
    doc = json.loads(text)
    assert doc["stages"][1]["cover"][0] == 1  # so true would load as this same cover
    doc["stages"][1]["cover"][0] = True
    for action in ("translate", "dim"):
        code, stdout, err = run_on_document(capsys, tmp_path, doc, "tower", action, "--seed", "1")
        assert (code, stdout) == (EXIT_INTEGRITY, "")
        assert err == "integrity error: stage 2: field 'cover': entry true has type bool\n"


def test_exact_cov_and_bounds_commands(capsys):
    code, stdout, _ = run(capsys, "covering", "exact-cov", "--group", "C7", "--k", "2")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["value"] == 3
    code, stdout, _ = run(capsys, "covering", "bounds", "--group", "C7", "--k", "2")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["lower_bound"] == pytest.approx(2.645751311064591, rel=1e-11)


def test_shrink_command(capsys):
    code, stdout, _ = run(
        capsys, "covering", "shrink", "--group", "C100", "--k", "2", "--l", "9", "--seed", "5"
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["final_size"] == 0 and doc["final_bound"] == 0
    assert len(doc["translators"]) == 2 and doc["translators"][0] == 0


def test_cov_table_csv(capsys):
    code, stdout, _ = run(
        capsys, "cov-table", "--groups", "C4,C7,C1024", "--k", "2", "--seed", "9"
    )
    assert code == EXIT_OK
    lines = stdout.strip().split("\n")
    assert lines[0] == "group,n,k,lower,exact,achieved,upper"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["C4"][3] == "2" and rows["C4"][4] == "3"
    assert rows["C7"][3].startswith("2.6457513110") and rows["C7"][4] == "3"
    assert rows["C1024"][4] == ""  # no exact value above order 16
    assert int(rows["C1024"][5]) <= 512  # achieved randomized size
    assert "." not in rows["C4"][1]  # integers stay integers


def test_cov_table_json_reruns(capsys):
    config = {
        "command": "cov-table",
        "groups": "C4,C7",
        "k": "1,2",
        "seed": 3,
        "format": "json",
        "out": None,
    }
    payload, code = run_config(config)
    assert code == EXIT_OK
    doc = json.loads(payload)
    assert rerun_document(doc) == payload


def test_cov_table_reads_elementary_abelian_groups(capsys):
    # EA(p,d) has a comma of its own: the list splits only outside parentheses
    code, stdout, _ = run(
        capsys, "cov-table", "--groups", "C5,EA(2,3),EA(3,2)", "--k", "2", "--seed", "1"
    )
    assert code == EXIT_OK
    assert stdout.split("\n")[2].startswith('"EA(2,3)",8,2,')
    rows = list(csv.reader(io.StringIO(stdout)))
    assert all(len(row) == 7 for row in rows)
    assert [row[:3] + row[4:5] for row in rows[1:]] == [
        ["C5", "5", "2", "3"],
        ["EA(2,3)", "8", "2", "5"],
        ["EA(3,2)", "9", "2", "4"],
    ]
    config = {
        "command": "cov-table",
        "groups": "C5,EA(2,3),EA(3,2)",
        "k": "2",
        "seed": 1,
        "format": "json",
        "out": None,
    }
    payload, code = run_config(config)
    assert code == EXIT_OK
    doc = json.loads(payload)
    assert [(row["group"], row["exact"]) for row in doc["rows"]] == [
        ("C5", 3),
        ("EA(2,3)", 5),
        ("EA(3,2)", 4),
    ]
    assert rerun_document(doc) == payload


def test_tower_build_command(capsys, tmp_path):
    out = tmp_path / "tower.json"
    code, _, _ = run(
        capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3", "--out", str(out)
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["kind"] == "tower"
    measures = [doc["stages"][i]["measure"] for i in range(2)]
    num0, den0 = map(int, measures[0].split("/"))
    num1, den1 = map(int, measures[1].split("/"))
    assert num0 * 2 <= den0 and num1 * 4 <= den1


def test_tower_build_inadmissible_lists_both_values(capsys):
    code, _, err = run(capsys, "tower", "build", "--spec", "tower:20,64", "--seed", "1")
    assert code == EXIT_INFEASIBLE
    assert "576.698" in err and "19.4" in err


def _inadmissible_tower_document() -> dict:
    """tower:20,64 assembled by hand over a 3-member stage-2 cover a build never emits."""
    spec = TowerSpec([20, 64])
    tower = Tower(spec, 1)
    base = FactoredSubset(tower.stage_set(0), GroupSubset.from_indices(CyclicGroup(20), [0]))
    tower.stages.append(TowerStage(base, 0, None))
    cover = GroupSubset.from_indices(CyclicGroup(64), [0, 1, 5])
    record = VerificationRecord("exhaustive", True)
    tower.stages.append(TowerStage(FactoredSubset(base, cover), 1, record))
    return json.loads(canonical_json(tower.document()))


def test_tower_commands_refuse_a_document_whose_spec_a_build_refuses(capsys, tmp_path):
    # stage 2 of tower:20,64 needs the strengthened value 576.698 < 64, so
    # `tower build` exits 3; loading it must fail the same way, as bad input
    _, _, build_err = run(capsys, "tower", "build", "--spec", "tower:20,64", "--seed", "1")
    doc = _inadmissible_tower_document()
    for action in ("translate", "dim"):
        code, stdout, err = run_on_document(capsys, tmp_path, doc, "tower", action, "--seed", "1")
        assert (code, stdout) == (EXIT_INTEGRITY, "")
        reason = build_err.removeprefix("infeasible: ")
        assert err == f"integrity error: document: field 'kernel_orders': {reason}"


def test_tower_translate_command(capsys):
    code, stdout, _ = run(
        capsys, "tower", "translate", "--spec", "tower:20,1024", "--seed", "3",
        "--samples", "25",
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["success"] == 25 and len(doc["results"]) == 25
    assert all(r["verified"] for r in doc["results"])


def test_tower_translate_from_document_and_thin_file(capsys, tmp_path):
    tower_path = tmp_path / "tower.json"
    run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3", "--out", str(tower_path))
    thin_path = tmp_path / "thin.json"
    thin_path.write_text(json.dumps({"thin_sets": [[5, 20 * 512 + 5], [777]]}))
    code, stdout, _ = run(
        capsys, "tower", "translate", "--seed", "3", "--in", str(tower_path),
        "--thin", str(thin_path),
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["samples"] == 2 and doc["success"] == 2


def test_tower_translate_refuses_malformed_thin_set_entries(capsys, tmp_path):
    # each entry must be a list of exact ints: int() would otherwise read "7"
    # as 7, 1.5 as 1, true as 1 and a dict's keys as indices
    tower_path = tmp_path / "tower.json"
    run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3", "--out", str(tower_path))
    thin_path = tmp_path / "thin.json"
    where = "integrity error: thin-set file: thin_sets entry"
    cases = [
        ([["7"]], f'{where} 1: entry "7" has type str'),
        ([[1.5]], f"{where} 1: entry 1.5 has type float"),
        ([{"5": 1}], f"{where} 1 has type dict"),
        ([[True, 3.9]], f"{where} 1: entry true has type bool"),
        ([7], f"{where} 1 has type int"),
        ([[5], [3.9]], f"{where} 2: entry 3.9 has type float"),
    ]
    for thin_sets, message in cases:
        thin_path.write_text(json.dumps({"thin_sets": thin_sets}))
        code, stdout, err = run(
            capsys, "tower", "translate", "--seed", "3", "--in", str(tower_path),
            "--depth", "2", "--thin", str(thin_path),
        )
        assert (code, stdout, err) == (EXIT_INTEGRITY, "", message + "\n")


def test_tower_translate_refuses_a_document_over_the_halving_bound(capsys, tmp_path):
    tower_path = tmp_path / "tower.json"
    run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3", "--out", str(tower_path))
    doc = json.loads(tower_path.read_text())
    assert doc["stages"][0]["set_size"] == 1
    doc["stages"][1].update(cover=list(range(600)), cover_size=600, set_size=600)
    tower_path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "tower", "translate", "--seed", "5", "--in", str(tower_path))
    assert code == EXIT_INTEGRITY and stdout == ""
    assert "stage 2: cover of size 600 is over half the kernel order 1024" in err


def test_tower_commands_reprove_the_stage_2_cover(capsys, tmp_path):
    # the lowest 131 members of the seed-3 stage-2 cover, with every derived
    # field made to match: {0, 470} has no translate into it, and a translate
    # of a sampled thin set may then miss the tower
    _, text, _ = run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3")
    doc = json.loads(text)
    stage = doc["stages"][1]
    stage.update(cover=stage["cover"][:131], cover_size=131, set_size=131)
    stage["measure"] = f"131/{stage['group_order']}"
    message = (
        "integrity error: stage 2: field 'cover' is not 2-covering: "
        "the pair [0, 470] has no translate into it\n"
    )
    for argv in (("translate", "--samples", "200"), ("dim",)):
        code, stdout, err = run_on_document(capsys, tmp_path, doc, "tower", *argv, "--seed", "4")
        assert (code, stdout, err) == (EXIT_INTEGRITY, "", message)


def test_tower_commands_refuse_a_negative_count(capsys, tmp_path):
    tower_path = tmp_path / "tower.json"
    build = ("tower", "build", "--spec", "tower:20,1024", "--seed", "3")
    code, _, _ = run(capsys, *build, "--claim3-samples", "0", "--out", str(tower_path))
    assert code == EXIT_OK  # 0 is a count: no translation claim is sampled
    code, stdout, err = run(capsys, *build, "--claim3-samples", "-4")
    assert (code, stdout, err) == (EXIT_USAGE, "", "error: claim3_samples must be >= 0, got -4\n")
    for action, count in (("translate", "-3"), ("dim", "-2")):
        argv = ("tower", action, "--seed", "1", "--in", str(tower_path))
        code, stdout, err = run(capsys, *argv, "--samples", count)
        message = f"error: --samples must be >= 0, got {count}\n"
        assert (code, stdout, err) == (EXIT_USAGE, "", message)
        code, stdout, _ = run(capsys, *argv, "--samples", "0")
        assert code == EXIT_OK and json.loads(stdout)["config"]["samples"] == 0


def test_verify_refuses_a_covering_parameter_below_one(capsys, tmp_path):
    documents = (
        {"kind": "k-covering", "group": "C8", "elements": [0, 1], "size": 2},
        {"kind": "intersecting-family", "group": "C8", "subsets": [], "sizes": []},
    )
    for doc in documents:
        for k in (0, -1):
            code, stdout, err = run_on_document(
                capsys, tmp_path, {**doc, "k": k}, "covering", "verify"
            )
            assert (code, stdout) == (EXIT_INTEGRITY, "")
            assert err == f"integrity error: document: field 'k' must be >= 1, got {k}\n"
    # k above the order is vacuous: no k-subset exists to translate
    vacuous = {**documents[0], "k": 9}
    code, stdout, _ = run_on_document(capsys, tmp_path, vacuous, "covering", "verify")
    assert code == EXIT_OK and json.loads(stdout)["verification"]["result"] is True


def test_tower_translate_names_a_missing_field(capsys, tmp_path):
    code, stdout, err = run_on_document(
        capsys, tmp_path, {"kind": "tower", "seed": 1}, "tower", "translate", "--seed", "1"
    )
    assert (code, stdout) == (EXIT_INTEGRITY, "")
    assert err == "integrity error: document: missing field 'kernel_orders'\n"


def test_tower_dim_names_a_mistyped_field(capsys, tmp_path):
    _, text, _ = run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3")
    doc = json.loads(text)
    doc["stages"][1]["attempts"] = "1"
    code, stdout, err = run_on_document(capsys, tmp_path, doc, "tower", "dim", "--seed", "1")
    assert (code, stdout) == (EXIT_INTEGRITY, "")
    assert err == "integrity error: stage 2: field 'attempts' has type str\n"


def test_tower_dim_command(capsys):
    code, stdout, _ = run(
        capsys, "tower", "dim", "--spec", "tower:20,1024", "--seed", "4", "--samples", "5"
    )
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert len(doc["estimates"]) == 5
    assert all(e["estimate"] == 0.0 for e in doc["estimates"])  # thin sets have tiny images
    code, stdout, _ = run(
        capsys, "tower", "dim", "--spec", "tower:20,1024", "--seed", "4",
        "--elements", "0,1,2,3",
    )
    doc = json.loads(stdout)
    assert code == EXIT_OK and len(doc["estimates"]) == 1


def test_tower_dim_reads_a_spec_without_building_it(capsys, tmp_path, monkeypatch):
    # the estimates read the spec alone; a loaded document gives the same ones
    _, text, _ = run(capsys, "tower", "build", "--spec", "tower:20,1024,131072", "--seed", "11")
    argv = ("tower", "dim", "--seed", "4", "--samples", "10", "--depth", "2")
    _, from_document, _ = run_on_document(capsys, tmp_path, json.loads(text), *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("tower dim built a tower")

    monkeypatch.setattr(cli, "build_tower", refuse)
    code, stdout, _ = run(capsys, *argv, "--spec", "tower:20,1024,131072")
    assert code == EXIT_OK
    got, want = json.loads(stdout), json.loads(from_document)
    assert got.pop("config")["spec"] == "tower:20,1024,131072"
    want.pop("config")
    assert got == want
    code, stdout, err = run(capsys, "tower", "dim", "--seed", "4", "--spec", "tower:20,64")
    assert (code, stdout) == (EXIT_INFEASIBLE, "")
    assert err.startswith("infeasible: stage 2 inadmissible")


def test_tower_commands_check_a_spec_once(capsys, monkeypatch):
    # tower translate leaves the admissibility check to build_tower, and
    # tower dim, which builds nothing, runs it itself; either refuses with exit 3
    checked = []
    check = tower_module._require_admissible

    def counted(spec):
        checked.append(spec.describe())
        check(spec)

    monkeypatch.setattr(tower_module, "_require_admissible", counted)
    monkeypatch.setattr(cli, "_require_admissible", counted)
    for action in ("translate", "dim"):
        for spec, exit_code in (("tower:20,1024", EXIT_OK), ("tower:20,64", EXIT_INFEASIBLE)):
            checked.clear()
            code, _, err = run(
                capsys, "tower", action, "--spec", spec, "--seed", "1", "--samples", "0"
            )
            assert (code, checked) == (exit_code, [spec]), (action, err)
            if exit_code == EXIT_INFEASIBLE:
                assert err.startswith("infeasible: stage 2 inadmissible")


@pytest.mark.parametrize("action", ["translate", "dim"])
def test_tower_commands_need_a_spec_or_a_document(capsys, action):
    code, stdout, err = run(capsys, "tower", action, "--seed", "1")
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"error: tower {action} needs --spec or --in\n"
    config = {"command": f"tower {action}", "spec": None, "seed": 1, "in": None}
    with pytest.raises(ValueError, match=f"^tower {action} needs --spec or --in$"):
        run_config(config)


def test_documents_are_byte_reproducible():
    config = {
        "command": "covering construct",
        "group": "C1024",
        "k": 2,
        "l": None,
        "seed": 7,
        "max_attempts": 100,
        "mode": "auto",
        "threads": 1,
        "out": None,
    }
    first, _ = run_config(config)
    second, _ = run_config(config)
    assert_same_text(second, first)
    assert_same_text(rerun_document(json.loads(first)), first)


def test_tower_translate_refuses_a_contradicted_measure(capsys, tmp_path):
    _, text, _ = run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "3")
    doc = json.loads(text)
    doc["stages"][1]["measure"] = "1/1"
    code, stdout, err = run_on_document(capsys, tmp_path, doc, "tower", "translate", "--seed", "1")
    assert (code, stdout) == (EXIT_INTEGRITY, "")
    assert err == "integrity error: stage 2: field 'measure' disagrees with the loaded tower\n"


def test_verify_refuses_loose_family_sizes(capsys, tmp_path):
    doc = {"kind": "intersecting-family", "group": "C8", "k": 1, "subsets": [[1]], "sizes": [1]}
    code, _, _ = run_on_document(capsys, tmp_path, doc, "covering", "verify")
    assert code == EXIT_OK
    for size, entry, kind in ((True, "true", "bool"), (1.0, "1.0", "float"), ("1", '"1"', "str")):
        code, stdout, err = run_on_document(
            capsys, tmp_path, {**doc, "sizes": [size]}, "covering", "verify"
        )
        assert (code, stdout) == (EXIT_INTEGRITY, "")
        assert err == f"integrity error: field 'sizes': entry {entry} has type {kind}\n"


def test_a_bad_mode_is_refused_before_any_other_fault(capsys, tmp_path):
    # the mode is read first: before admissibility, before the listed sets
    build = ("tower", "build", "--spec", "tower:20,64", "--seed", "1")
    assert run(capsys, *build)[0] == EXIT_INFEASIBLE
    code, stdout, err = run(capsys, *build, "--mode", "bogus")
    assert (code, stdout, err) == (EXIT_USAGE, "", "error: unknown verification mode 'bogus'\n")
    # max_attempts is read next, also before admissibility
    code, stdout, err = run(capsys, *build, "--max-attempts", "0")
    assert (code, stdout, err) == (EXIT_USAGE, "", "error: max_attempts must be >= 1, got 0\n")
    code, stdout, err = run(capsys, *build, "--max-attempts", "0", "--mode", "bogus")
    assert (code, stdout, err) == (EXIT_USAGE, "", "error: unknown verification mode 'bogus'\n")
    doc = {"kind": "k-covering", "group": "C8", "k": 2, "elements": [0, 1, 1], "size": 3}
    assert run_on_document(capsys, tmp_path, doc, "covering", "verify")[0] == EXIT_INTEGRITY
    code, stdout, err = run_on_document(
        capsys, tmp_path, doc, "covering", "verify", "--mode", "bogus"
    )
    assert (code, stdout, err) == (EXIT_USAGE, "", "error: unknown verification mode 'bogus'\n")
    code, stdout, err = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "1",
        "--mode", "sampled:0",
    )
    message = "error: sampled trial count must be >= 1, got 0 in mode 'sampled:0'\n"
    assert (code, stdout, err) == (EXIT_USAGE, "", message)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_tower_build_refuses_max_attempts_below_one_at_depth_one(capsys, tmp_path, count):
    # at the parent a depth-1 build exited 0 and wrote the count into its config
    out = tmp_path / "tower.json"
    code, stdout, err = run(
        capsys, "tower", "build", "--spec", "tower:20", "--seed", "1",
        "--max-attempts", count, "--out", str(out),
    )
    assert (code, stdout, err) == (
        EXIT_USAGE, "", f"error: max_attempts must be >= 1, got {count}\n"
    )
    assert not out.exists()
    code, stdout, _ = run(
        capsys, "tower", "build", "--spec", "tower:20", "--seed", "1", "--max-attempts", "1"
    )
    assert code == EXIT_OK and json.loads(stdout)["config"]["max_attempts"] == 1


@pytest.mark.parametrize(
    "shape", [("--group", "C8", "--k", "5"), ("--group", "C1024", "--k", "2", "--l", "2000")]
)
def test_covering_construct_refuses_max_attempts_before_feasibility(capsys, shape):
    # at the parent both exited 3: the covering condition, or the target
    # size, was checked before the attempt count
    code, stdout, err = run(
        capsys, "covering", "construct", *shape, "--seed", "1", "--max-attempts", "0"
    )
    assert (code, stdout, err) == (EXIT_USAGE, "", "error: max_attempts must be >= 1, got 0\n")
    assert run(capsys, "covering", "construct", *shape, "--seed", "1")[0] == EXIT_INFEASIBLE


def test_tower_commands_refuse_an_impossible_depth_at_any_count(capsys, tmp_path):
    # at the parent, --samples 0 or an empty thin-set list let these depths
    # into a document that exited 0
    tower_path = tmp_path / "tower.json"
    run(capsys, "tower", "build", "--spec", "tower:20,1024", "--seed", "1", "--out", str(tower_path))
    empty = tmp_path / "thin.json"
    empty.write_text(json.dumps({"thin_sets": []}))
    out_of_range = "error: depth {} out of range for tower:20,1024\n"
    cases = [
        (("translate", "--samples", "0", "--depth", "-4"), out_of_range.format(-4)),
        (("translate", "--samples", "0", "--depth", "3"), out_of_range.format(3)),
        (("translate", "--thin", str(empty), "--depth", "7"), out_of_range.format(7)),
        (("dim", "--samples", "0", "--depth", "9"), out_of_range.format(9)),
        (("dim", "--samples", "0", "--depth", "-1"), out_of_range.format(-1)),
        (("dim", "--samples", "0", "--depth", "0"), "error: dimension estimate needs depth >= 1\n"),
        (("dim", "--elements", "0,1", "--depth", "3"), out_of_range.format(3)),
        (("translate", "--samples", "0", "--fullness", "0"),
         "error: fullness must be in (0, 1], got 0.0\n"),
        (("translate", "--samples", "0", "--fullness", "1.5"),
         "error: fullness must be in (0, 1], got 1.5\n"),
    ]
    for argv, message in cases:
        code, stdout, err = run(capsys, "tower", *argv, "--seed", "1", "--in", str(tower_path))
        assert (code, stdout, err) == (EXIT_USAGE, "", message), argv
    code, stdout, err = run(
        capsys, "tower", "dim", "--spec", "tower:20,1024", "--seed", "1", "--samples", "0",
        "--depth", "9",
    )
    assert (code, stdout, err) == (EXIT_USAGE, "", out_of_range.format(9))
    for action, depth in (("translate", 0), ("translate", 2), ("dim", 1), ("dim", None)):
        argv = ("tower", action, "--seed", "1", "--samples", "0", "--in", str(tower_path))
        code, stdout, _ = run(capsys, *argv, *(() if depth is None else ("--depth", str(depth))))
        assert code == EXIT_OK and json.loads(stdout)["depth"] == (2 if depth is None else depth)
