import json

import pytest

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
    monkeypatch.setenv("COVTRANS_BUDGET", "100")
    code, _, err = run(
        capsys, "covering", "construct", "--group", "C1024", "--k", "2", "--seed", "1",
        "--mode", "exhaustive",
    )
    assert code == EXIT_BUDGET_EXCEEDED
    assert "sampled" in err


def test_parse_error_names_token(capsys):
    code, _, err = run(capsys, "covering", "construct", "--group", "Q8", "--k", "2", "--seed", "1")
    assert code == EXIT_USAGE
    assert "Q8" in err
    code, _, err = run(
        capsys, "covering", "construct", "--group", "C64", "--k", "2", "--seed", "1",
        "--mode", "turbo",
    )
    assert code == EXIT_USAGE and "turbo" in err


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
    assert first == second
    assert rerun_document(json.loads(first)) == first
