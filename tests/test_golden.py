"""Pinned document bytes: each command's document against a committed sha256.

The commands run through the CLI parser and run_config in a temporary
directory, reading earlier documents under relative file names, so the
config embedded in each document is the same on every machine.  A change
that alters a document on purpose updates its digest here in the same
change and says so in CHANGES.md.
"""

import hashlib

from covtrans.cli import EXIT_OK, _build_parser, _config_from_args, run_config

# (file the document is saved as for later commands, or None; argv; sha256)
GOLDEN = [
    (
        "c1024.json",
        "covering construct --group C1024 --k 2 --seed 7",
        "e6d5c2bd14e5d7f03ce31e429b00be162a409164b9fd416eaaf651ea86288d74",
    ),
    # C(1024, 2) * 1024 steps exceed the budget: the difference-set route
    (
        None,
        "covering verify --in c1024.json",
        "9ddbb15cfaddcaf2ae780b0fa7d8b13ab85162771a99a9770e41bd39842b403f",
    ),
    (
        "d60.json",
        "covering construct --group D60 --k 2 --l 71 --seed 5",
        "e59dd36c325ea7ac71d10bc48f555945db2a2abe62eb82c4a3ddf7fc6df695a0",
    ),
    (
        None,
        "covering verify --in d60.json",
        "913aec6cadacbcf49ad22489810c6f4f1eb34c6a5f210d06d8d34bc6bf603e16",
    ),
    (
        None,
        "covering exact-cov --group C7 --k 2",
        "f1017f24ee3f67942bc962639b7281628976a5d5613a0eafad81853027269a42",
    ),
    # exact values on carriers translated through mul, not rotation
    (
        None,
        "covering exact-cov --group C4xC4 --k 2",
        "66ded54f8a73730ab2b8216bc915ebf34ae794f861a9a0de7f9484f726951557",
    ),
    (
        None,
        "covering exact-cov --group D8 --k 2",
        "48cd6c4ce53dd56429661df5dd194cade5d7ca127bcd709d9eb18f2e8c4f8e33",
    ),
    (
        None,
        "cov-table --groups D5,C2xC6,D8 --k 1,2,3 --seed 1 --format json",
        "5155e0874c90a4844fd42dbe2604b2a44e91416454af3b0dd64862769d3b9d49",
    ),
    (
        "tower.json",
        "tower build --spec tower:20,1024 --seed 3",
        "4d82c8bf82bbae29be924fb33461d123e97122e785cadf8dd396cd17c24cd0a0",
    ),
    (
        None,
        "tower translate --seed 3 --samples 50 --in tower.json",
        "d64264586025399007c05d391c59c484d2a052a56fc1d56ad87948da33de81bb",
    ),
    (
        None,
        "tower dim --seed 4 --in tower.json",
        "cff612d5d537bcc64b87ffbd10a6cbacf995841e61dacb358f5836947621ee58",
    ),
    # depth 3: the 200 translations run the lift through the C131072 kernel
    (
        "tower3.json",
        "tower build --spec tower:20,1024,131072 --seed 11",
        "1380fc90e2ec9eb8925a3c169a5333ea5953eb140908af54a551375060db7deb",
    ),
    (
        None,
        "tower translate --seed 3 --samples 200 --in tower3.json",
        "af6f864895ec0b8705234561a8be1c419eb181ecdc71a6e878260b7303add067",
    ),
    # fullness below 1: each sampled element is kept on one more draw
    (
        None,
        "tower translate --seed 3 --samples 200 --fullness 0.5 --in tower3.json",
        "61566ce56f446a41cf67561fa49762b0603d5b0c7e1beb158f4088cebefece81",
    ),
]


def test_documents_match_their_pinned_digests(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    parser = _build_parser()
    changed = []
    for saved_as, argv, digest in GOLDEN:
        payload, code = run_config(_config_from_args(parser.parse_args(argv.split())))
        assert code == EXIT_OK, argv
        if saved_as is not None:
            (tmp_path / saved_as).write_text(payload, encoding="utf-8")
        got = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if got != digest:
            changed.append(f"{argv}: {got}")
    assert changed == []
