"""Property: a document with one field mutated loads exactly or is refused naming the field.

Three documents are mutated: the seed-3 `tower:20,1024` tower, read by
`tower translate --in ... --samples 0`, and the seed-7 C1024 cover and
family, read by `covering verify --in`.  One mutation deletes a field or a
list entry, retypes a value, puts a bool or a float for an int, puts an
invalid value (-1, "?", or -1 appended to a list), changes a declared size
by one, raises a kernel order by the factor 2^16, or duplicates or swaps
two entries of a list.  Each must exit 0 or exit 6 with a message that
names the field; never a traceback, exit 1 or exit 2, and a raised kernel
order exits 6.  A tower that loads must re-emit its input exactly, JSON types
included, through tower_from_document, and no mutated stage seed or
verification record loads.  The run config is not read by either loader, so it is not
mutated.
"""

import contextlib
import copy
import functools
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from covtrans import tower_from_document
from covtrans.cli import (
    EXIT_INTEGRITY,
    EXIT_OK,
    _build_parser,
    _config_from_args,
    main,
    run_config,
)
from covtrans.util import canonical_json

MUTATION_SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None)

SOURCES = {
    "tower": "tower build --spec tower:20,1024 --seed 3",
    "cover": "covering construct --group C1024 --k 2 --seed 7",
    "family": "covering construct --group C1024 --k 2 --l 245 --seed 7",
}
LISTED_SIZE = {"cover": "cover_size", "elements": "size", "subsets": "sizes"}


@functools.cache
def documents() -> dict:
    parser = _build_parser()
    out = {}
    for name, argv in SOURCES.items():
        payload, code = run_config(_config_from_args(parser.parse_args(argv.split())))
        assert code == EXIT_OK, argv
        out[name] = json.loads(payload)
    return out


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutable_paths(node, path=()):
    """Paths to every value below node except the run config; three entries of a long list."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "config":
                yield path + (key,)
                yield from mutable_paths(value, path + (key,))
    elif isinstance(node, list):
        picks = range(len(node)) if len(node) <= 3 else (0, 1, len(node) - 1)
        for i in picks:
            yield path + (i,)
            yield from mutable_paths(node[i], path + (i,))


def operations(doc, path) -> list:
    """(op, index) pairs that apply to the value at path."""
    value, parent = node_at(doc, path), node_at(doc, path[:-1])
    ops = [("retype", None), ("invalid", None)]
    if isinstance(parent, dict):
        ops.append(("delete", None))
    if type(value) is int:
        ops += [("bool", None), ("float", None)]
        if "size" in str(path[-1]) or path[-2:-1] == ("sizes",):
            ops.append(("size", None))
        if path[-2:-1] == ("kernel_orders",):
            ops.append(("raise", None))
    if isinstance(value, list) and value:
        ops += [("drop", i) for i in range(min(len(value), 2))]
        if len(value) >= 2:
            ops += [("duplicate", 0), ("swap", 0), ("swap", len(value) - 2)]
    return ops


def mutated(doc, path, op, index):
    out = copy.deepcopy(doc)
    parent, key = node_at(out, path[:-1]), path[-1]
    value = parent[key]
    if op == "delete":
        del parent[key]
    elif op == "retype":
        retyped = {int: str(value), float: "x", str: 7, list: {"x": 1}, dict: [1]}
        parent[key] = retyped.get(type(value), "x")
    elif op == "invalid":
        if isinstance(value, list):
            value.append(-1)
        else:
            parent[key] = -1 if type(value) in (int, float) else "?"
    elif op == "bool":
        parent[key] = True
    elif op == "float":
        parent[key] = float(value)
    elif op == "size":
        parent[key] = value + 1
    elif op == "raise":
        parent[key] = value << 16
    elif op == "drop":
        del value[index]
    elif op == "duplicate":
        value.insert(index, value[index])
    elif op == "swap":
        value[index], value[index + 1] = value[index + 1], value[index]
    return out


@st.composite
def mutations(draw, name):
    doc = documents()[name]
    path = draw(st.sampled_from(list(mutable_paths(doc))))
    op, index = draw(st.sampled_from(operations(doc, path)))
    return path, op, index


def field_names(path) -> list[str]:
    """What a refusal may name for a mutation at path."""
    names = [key for key in path if isinstance(key, str)]
    if names and names[-1] in LISTED_SIZE:
        names.append(LISTED_SIZE[names[-1]])  # a changed set is refused by its size
    if "stages" in path:
        stage = path.index("stages") + 1
        if stage == len(path):
            names.append("stage")
        elif stage + 1 == len(path):
            names.append(f"stage {path[stage] + 1}")
    return names


def load(argv, doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--in", str(path)])
    return code, err.getvalue()


def check_refusal(code, err, path):
    assert code in (EXIT_OK, EXIT_INTEGRITY), (code, err)
    if code == EXIT_OK:
        return
    assert err.startswith("integrity error: ") and err.count("\n") == 1, err
    if path[0] == "kernel_orders":
        # the spec: a changed chain is refused at the first stage or field it breaks
        assert re.search(r"field '|stage \d|stages", err), err
        return
    assert any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", err) for n in field_names(path)), err


@given(mutations("tower"))
@example((("kernel_orders", 0), "float", None))
@example((("depth",), "float", None))
@example((("stages", 1, "stage"), "float", None))
@example((("stages", 1, "cover_size"), "float", None))
@example((("stages", 1, "cover"), "duplicate", 0))
@example((("stages", 1, "cover"), "swap", 0))
@example((("stages", 1, "verification", "mode"), "invalid", None))
@example((("stages", 0, "seed"), "invalid", None))
@example((("seed",), "invalid", None))
@example((("kernel_orders", 0), "raise", None))
@example((("kernel_orders", 1), "raise", None))
@MUTATION_SETTINGS
def test_mutated_tower_loads_exactly_or_names_the_field(mutation):
    doc = mutated(documents()["tower"], *mutation)
    code, err = load(["tower", "translate", "--seed", "1", "--samples", "0"], doc)
    check_refusal(code, err, mutation[0])
    if "verification" in mutation[0] or mutation[0][-1] == "seed" or mutation[1] == "raise":
        # no mutation of a stage record or seed leaves one that a build
        # emits, and the covers of a raised kernel no longer give the
        # document's spec
        assert code == EXIT_INTEGRITY, err
    if code == EXIT_OK:
        reemitted = json.loads(canonical_json(tower_from_document(doc).document()))
        given_doc = {key: value for key, value in doc.items() if key != "config"}
        assert json.dumps(reemitted) == json.dumps(given_doc)


certificate_mutations = st.sampled_from(["cover", "family"]).flatmap(
    lambda name: st.tuples(st.just(name), mutations(name))
)


@given(certificate_mutations)
@example(("family", (("sizes", 0), "bool", None)))
@example(("family", (("sizes", 0), "float", None)))
@example(("family", (("sizes", 0), "retype", None)))
@MUTATION_SETTINGS
def test_mutated_certificate_verifies_or_names_the_field(case):
    name, mutation = case
    code, err = load(["covering", "verify"], mutated(documents()[name], *mutation))
    check_refusal(code, err, mutation[0])
