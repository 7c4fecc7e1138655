"""Command-line front end: reproducible experiments and certificate emission.

Every randomized command requires an explicit --seed; a document's embedded
config re-executes to byte-identical output.  Exit codes: 0 verified
success, 1 verification failure or soundness violation, 2 usage/parse
error, 3 infeasible parameters, 4 attempts exhausted, 5 budget exceeded,
6 certificate integrity error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys

from .covering import (
    DEFAULT_MAX_ATTEMPTS,
    construct_intersecting_family,
    construct_k_covering,
    covering_condition,
    covering_number_bounds,
    exact_covering_number,
    EXACT_COVERING_ORDER_LIMIT,
    greedy_shrink_intersection,
    parse_mode,
    verify_intersecting,
    verify_k_covering,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    FeasibilityError,
    IntegrityError,
    SoundnessError,
)
from .groups import group_from_descriptor
from .subsets import GroupSubset
from .tower import (
    _require_admissible,
    build_tower,
    dimension_estimate,
    make_thin_set,
    parse_tower_descriptor,
    sample_thin_set,
    tower_from_document,
    translate_thin,
)
from .util import canonical_json, derive_seed, doc_field, format_real, require_indices

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_ATTEMPTS_EXHAUSTED = 4
EXIT_BUDGET_EXCEEDED = 5
EXIT_INTEGRITY = 6

_TRANSLATE_SALT = 0x7472616E
_DIM_SALT = 0x64696D
_SHRINK_SALT = 0x736872
# Verification is single-threaded.  rerun_document passes an embedded config
# straight to run_config, which ignores keys it does not read, so reruns need
# no parser option; --threads stays so that existing command lines keep
# working and the configs the CLI writes keep "threads": 1.
_THREADS_HELP = "accepted for compatibility; verification is single-threaded"


def _cmd_covering_construct(config: dict) -> tuple[dict, int]:
    group = group_from_descriptor(config["group"])
    common = dict(seed=config["seed"], max_attempts=config["max_attempts"], mode=config["mode"])
    if config["l"] is not None:
        family = construct_intersecting_family(group, config["k"], target_size=config["l"], **common)
        return family.document(), EXIT_OK
    return construct_k_covering(group, config["k"], **common).document(), EXIT_OK


def _load_subset(group, listed: list, what: str) -> GroupSubset:
    require_indices(listed, what)
    try:
        subset = GroupSubset.from_indices(group, listed)
    except ValueError as exc:
        raise IntegrityError(f"{what}: {exc}") from exc
    if subset.size != len(listed):
        raise IntegrityError(f"{what} lists duplicate elements")
    return subset


def _cmd_covering_verify(config: dict) -> tuple[dict, int]:
    with open(config["in"], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("intersecting-family", "k-covering"):
        raise IntegrityError(f"cannot verify documents of kind {kind!r}")
    descriptor = doc_field(doc, "group", str)
    try:
        group = group_from_descriptor(descriptor)
    except ValueError as exc:
        raise IntegrityError(f"document: field 'group': {exc}") from exc
    k = doc_field(doc, "k", int)
    if k < 1:
        raise IntegrityError(f"document: field 'k' must be >= 1, got {k}")
    mode = config["mode"]
    parse_mode(mode)  # a bad mode is refused before the listed sets are read
    if kind == "intersecting-family":
        listed, sizes = doc_field(doc, "subsets", list), doc_field(doc, "sizes", list)
        require_indices(sizes, "field 'sizes'")
        if len(listed) != k or len(sizes) != k:
            raise IntegrityError(
                f"family lists {len(listed)} subsets and {len(sizes)} sizes but k = {k}"
            )
        subsets = [
            _load_subset(group, lst, f"field 'subsets' list {i + 1}")
            for i, lst in enumerate(listed)
        ]
        for i, (subset, declared) in enumerate(zip(subsets, sizes)):
            if subset.size != declared:
                raise IntegrityError(
                    f"field 'sizes': subset {i + 1} declares size {declared} "
                    f"but lists {subset.size} elements"
                )
        record = verify_intersecting(subsets, mode, seed=config["seed"])
    else:
        x = _load_subset(group, doc_field(doc, "elements", list), "field 'elements'")
        size = doc_field(doc, "size", int)
        if x.size != size:
            raise IntegrityError(f"covering set declares size {size} but lists {x.size} elements")
        record = verify_k_covering(x, k, mode, seed=config["seed"])
    verdict = {
        "kind": "verification-verdict",
        "input_kind": kind,
        "group": descriptor,
        "k": k,
        "verification": record.document(),
    }
    return verdict, EXIT_OK if record.result else EXIT_VERIFY_FAILED


def _cmd_covering_exact(config: dict) -> tuple[dict, int]:
    group = group_from_descriptor(config["group"])
    value = exact_covering_number(group, config["k"])
    n = group.order
    lower, upper = (covering_number_bounds(n, config["k"]) if n >= 3 else (None, None))
    doc = {
        "kind": "exact-covering",
        "group": group.name,
        "n": n,
        "k": config["k"],
        "value": value,
        "lower_bound": lower,
        "upper_bound": upper,
    }
    return doc, EXIT_OK


def _cmd_covering_bounds(config: dict) -> tuple[dict, int]:
    group = group_from_descriptor(config["group"])
    lower, upper = covering_number_bounds(group.order, config["k"])
    doc = {
        "kind": "covering-bounds",
        "group": group.name,
        "n": group.order,
        "k": config["k"],
        "lower_bound": lower,
        "upper_bound": upper,
    }
    return doc, EXIT_OK


def _cmd_covering_shrink(config: dict) -> tuple[dict, int]:
    group = group_from_descriptor(config["group"])
    n = group.order
    size = config["l"]
    if size is None:
        raise ValueError("shrink needs --l, the size of the random subset")
    if not 0 <= size <= n:
        raise ValueError(f"subset size {size} out of range for order {n}")
    rng = random.Random(derive_seed(config["seed"], _SHRINK_SALT))
    members = sorted(rng.sample(range(n), size))
    x = GroupSubset.from_indices(group, members)
    result = greedy_shrink_intersection(x, config["k"])
    k = config["k"]
    bound = (size**k) // (n ** (k - 1))
    doc = {
        "kind": "greedy-shrink",
        "group": group.name,
        "n": n,
        "k": k,
        "seed": config["seed"],
        "size": size,
        "subset": members,
        "translators": list(result.elements),
        "sizes": result.sizes,
        "final_size": result.sizes[-1],
        "final_bound": bound,
    }
    return doc, EXIT_OK


def _cmd_cov_table(config: dict) -> tuple[dict | str, int]:
    # split only on commas outside parentheses, so EA(p,d) stays one token
    tokens = re.split(r",(?![^(]*\))", config["groups"])
    groups = [group_from_descriptor(tok) for tok in tokens]
    try:
        ks = [int(tok) for tok in config["k"].split(",")]
    except ValueError as exc:
        raise ValueError(f"bad k list {config['k']!r}") from exc
    rows = []
    index = 0
    for group in groups:
        n = group.order
        for k in ks:
            lower, upper = covering_number_bounds(n, k)
            exact = (
                exact_covering_number(group, k) if n <= EXACT_COVERING_ORDER_LIMIT else None
            )
            achieved = None
            if covering_condition(n, k):
                certificate = construct_k_covering(
                    group, k, seed=derive_seed(config["seed"], index)
                )
                achieved = certificate.covering_set.size
            rows.append(
                {
                    "group": group.name,
                    "n": n,
                    "k": k,
                    "lower": lower,
                    "exact": exact,
                    "achieved": achieved,
                    "upper": upper,
                }
            )
            index += 1
    if config["format"] == "json":
        return {"kind": "covering-table", "seed": config["seed"], "rows": rows}, EXIT_OK
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a name such as EA(2,3)
    writer.writerow(["group", "n", "k", "lower", "exact", "achieved", "upper"])
    for row in rows:
        lower, upper = format_real(row["lower"]), format_real(row["upper"])
        # csv writes None (no exact or achieved value) as an empty field
        writer.writerow(
            [row["group"], row["n"], row["k"], lower, row["exact"], row["achieved"], upper]
        )
    return out.getvalue(), EXIT_OK


def _cmd_tower_build(config: dict) -> tuple[dict, int]:
    tower = build_tower(
        parse_tower_descriptor(config["spec"]),
        config["seed"],
        max_attempts=config["max_attempts"],
        mode=config["mode"],
        claim3_samples=config["claim3_samples"],
    )
    return tower.document(), EXIT_OK


def _sample_count(config: dict) -> int:
    """config["samples"], refused when negative; 0 is a valid count."""
    if config["samples"] < 0:
        raise ValueError(f"--samples must be >= 0, got {config['samples']}")
    return config["samples"]


def _requested_depth(config: dict, spec, least: int) -> int:
    """--depth, or the spec's depth when unset, refused outside least..spec depth.

    Checked once the spec is read, so that no count of samples or thin
    sets, zero included, lets an impossible depth into a document.
    """
    depth = spec.depth if config["depth"] is None else config["depth"]
    if not 0 <= depth <= spec.depth:
        raise ValueError(f"depth {depth} out of range for {spec.describe()}")
    if depth < least:
        raise ValueError(f"dimension estimate needs depth >= {least}")
    return depth


def _tower_spec(config: dict):
    """--spec, parsed; a command given neither --spec nor --in is refused."""
    if config.get("spec") is None:
        raise ValueError(f"{config['command']} needs --spec or --in")
    return parse_tower_descriptor(config["spec"])


def _load_or_build_tower(config: dict):
    if config.get("in"):
        with open(config["in"], "r", encoding="utf-8") as fh:
            return tower_from_document(json.load(fh))
    return build_tower(_tower_spec(config), config["seed"], claim3_samples=0)


def _cmd_tower_translate(config: dict) -> tuple[dict, int]:
    tower = _load_or_build_tower(config)
    spec = tower.spec
    depth = _requested_depth(config, spec, 0)
    results = []
    if config.get("thin"):
        with open(config["thin"], "r", encoding="utf-8") as fh:
            listed = doc_field(json.load(fh), "thin_sets", list, "thin-set file")
        for i, elems in enumerate(listed, start=1):
            require_indices(elems, f"thin-set file: thin_sets entry {i}")
        thin_sets = [make_thin_set(spec, depth, elems) for elems in listed]
    else:
        fullness = config["fullness"]
        if not 0.0 < fullness <= 1.0:  # as sample_thin_set does, but at --samples 0 too
            raise ValueError(f"fullness must be in (0, 1], got {fullness}")
        rng = random.Random(derive_seed(config["seed"], _TRANSLATE_SALT))
        # a generator, so each thin set is dropped once translated; the count
        # is checked here, before any draw
        thin_sets = (
            sample_thin_set(spec, depth, rng, fullness) for _ in range(_sample_count(config))
        )
    for thin in thin_sets:
        results.append(
            {
                "elements": list(thin.elements),
                "translator": translate_thin(tower, thin),
                "verified": True,
            }
        )
    doc = {
        "kind": "tower-translation",
        "spec": spec.describe(),
        "seed": config["seed"],
        "depth": depth,
        "samples": len(results),
        "success": len(results),
        "results": results,
    }
    return doc, EXIT_OK


def _cmd_tower_dim(config: dict) -> tuple[dict, int]:
    # the estimates read the spec alone: a document is loaded and checked,
    # a --spec tower is refused as tower build refuses it, but not built
    if config.get("in"):
        spec = _load_or_build_tower(config).spec
    else:
        spec = _tower_spec(config)
        _require_admissible(spec)
    depth = _requested_depth(config, spec, 1)
    if config.get("elements"):
        elements = [int(tok) for tok in config["elements"].split(",")]
        samples = [{"elements": elements, "estimate": dimension_estimate(spec, elements, depth)}]
    else:
        rng = random.Random(derive_seed(config["seed"], _DIM_SALT))
        samples = []
        for _ in range(_sample_count(config)):
            thin = sample_thin_set(spec, depth, rng)
            samples.append(
                {
                    "elements": list(thin.elements),
                    "estimate": dimension_estimate(spec, thin.elements, depth),
                }
            )
    doc = {
        "kind": "dimension-report",
        "spec": spec.describe(),
        "seed": config["seed"],
        "depth": depth,
        "estimates": samples,
    }
    return doc, EXIT_OK


_DISPATCH = {
    "covering construct": _cmd_covering_construct,
    "covering verify": _cmd_covering_verify,
    "covering exact-cov": _cmd_covering_exact,
    "covering bounds": _cmd_covering_bounds,
    "covering shrink": _cmd_covering_shrink,
    "cov-table": _cmd_cov_table,
    "tower build": _cmd_tower_build,
    "tower translate": _cmd_tower_translate,
    "tower dim": _cmd_tower_dim,
}


def run_config(config: dict) -> tuple[str, int]:
    """Execute a run configuration; returns (payload text, exit code).

    Each handler returns its document, or cov-table's CSV text; a document
    gets the config as its last key and is serialized here, once.
    """
    command = config.get("command")
    if command not in _DISPATCH:
        raise ValueError(f"unknown command {command!r}")
    doc, code = _DISPATCH[command](config)
    if isinstance(doc, str):
        return doc, code
    doc["config"] = config
    return canonical_json(doc) + "\n", code


def rerun_document(doc: dict) -> str:
    """Re-execute a document's embedded config; must reproduce it byte-for-byte."""
    if "config" not in doc:
        raise IntegrityError("document carries no run configuration")
    return run_config(doc["config"])[0]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covtrans",
        description="randomized covering-set constructions over finite groups, with certificates",
    )
    top = parser.add_subparsers(dest="section", required=True)

    covering = top.add_parser("covering", help="intersecting families and k-covering sets")
    cov_actions = covering.add_subparsers(dest="action", required=True)

    c = cov_actions.add_parser("construct", help="construct and verify a certificate")
    c.add_argument("--group", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--l", type=int, default=None, help="family target size (emits the family)")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    c.add_argument("--mode", default="auto")
    c.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    c.add_argument("--out", default=None)

    v = cov_actions.add_parser("verify", help="independently re-verify a certificate")
    v.add_argument("--in", dest="in", required=True)
    v.add_argument("--mode", default="auto")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    v.add_argument("--out", default=None)

    e = cov_actions.add_parser("exact-cov", help="exact minimal covering size (order <= 16)")
    e.add_argument("--group", required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--out", default=None)

    b = cov_actions.add_parser("bounds", help="lower/upper covering-size bounds")
    b.add_argument("--group", required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--out", default=None)

    s = cov_actions.add_parser("shrink", help="greedy translate-intersection shrinking")
    s.add_argument("--group", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--l", type=int, required=True, help="size of the random subset")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default=None)

    t = top.add_parser("cov-table", help="bounds/exact/achieved table over groups and k")
    t.add_argument("--groups", required=True, help="comma-separated group descriptors")
    t.add_argument("--k", required=True, help="comma-separated k values")
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", default=None)

    tower = top.add_parser("tower", help="staged quotient towers")
    tower_actions = tower.add_subparsers(dest="action", required=True)

    tb = tower_actions.add_parser("build", help="build a tower and emit its document")
    tb.add_argument("--spec", required=True, help='e.g. "tower:20,1024"')
    tb.add_argument("--seed", type=int, required=True)
    tb.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    tb.add_argument("--mode", default="auto")
    tb.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    tb.add_argument("--claim3-samples", type=int, default=100)
    tb.add_argument("--out", default=None)

    tt = tower_actions.add_parser("translate", help="translate sampled or listed thin sets")
    tt.add_argument("--spec", default=None)
    tt.add_argument("--seed", type=int, required=True)
    tt.add_argument("--samples", type=int, default=100)
    tt.add_argument("--depth", type=int, default=None)
    tt.add_argument("--fullness", type=float, default=1.0)
    tt.add_argument("--in", dest="in", default=None, help="tower document to load")
    tt.add_argument("--thin", default=None, help="JSON file with explicit thin sets")
    tt.add_argument("--out", default=None)

    td = tower_actions.add_parser("dim", help="finite-depth dimension estimates")
    td.add_argument("--spec", default=None)
    td.add_argument("--seed", type=int, required=True)
    td.add_argument("--samples", type=int, default=10)
    td.add_argument("--depth", type=int, default=None)
    td.add_argument("--elements", default=None, help="comma-separated element indices")
    td.add_argument("--in", dest="in", default=None)
    td.add_argument("--out", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    """The run configuration: "command", then the parsed options in parser order."""
    options = vars(args).copy()
    command = options.pop("section")
    action = options.pop("action", None)
    if action is not None:
        command = f"{command} {action}"
    return {"command": command, **options}


# (exception type, stderr prefix, exit code) of each failure main reports;
# the first entry the exception is an instance of wins
_FAILURES = (
    (ValueError, "error", EXIT_USAGE),
    (FeasibilityError, "infeasible", EXIT_INFEASIBLE),
    (ConstructionError, "attempts exhausted", EXIT_ATTEMPTS_EXHAUSTED),
    (BudgetExceededError, "budget exceeded", EXIT_BUDGET_EXCEEDED),
    (IntegrityError, "integrity error", EXIT_INTEGRITY),
    (SoundnessError, "soundness violation", EXIT_VERIFY_FAILED),
    (OSError, "error", EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    config = _config_from_args(_build_parser().parse_args(argv))
    try:
        payload, code = run_config(config)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        prefix, code = next((p, c) for kind, p, c in _FAILURES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    if config.get("out"):
        with open(config["out"], "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
