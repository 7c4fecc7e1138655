"""Every definition in src/covtrans is reached by a command or the benchmark.

Each top-level function or class of src/covtrans/*.py, and each method that
is not a dunder, must be named where the program or the benchmark reaches
it: by a Name or Attribute node in src/covtrans outside __init__.py, whose
exports reach nothing by themselves, or by a Name, Attribute or string
constant in bench/*.py, since bench/tracing.py patches functions by their
names as strings.  Tests do not count: a name that only tests use belongs
in tests/conftest.py as a reference helper.

The check goes by name, not by binding, so a definition that shares its
name with a used one passes: a GroupSubset.full classmethod would pass on
the local `full` of covering._quotient_witness, a FiniteGroup.elements
method on ThinSet.elements, and a Tower.set_size method on bench's
"set_size" document key.  Those three were checked by hand and removed
when this test came.

Every field of a dataclass in src/covtrans must likewise be read: as an
attribute load in src/covtrans outside __init__.py, or by name in
bench/*.py.  A field that nothing reads is a stored copy that no caller
needs.  A class whose document() returns asdict(self) is exempt, since its
document reads every field.

The benchmark attributes verify_k_covering's time by its record's method
through a lookup that skips unknown names, so a renamed method would pass
every other test and its time would go unattributed; one more test runs
each route and reads bench/tracing.py's table of methods.
"""

import ast
from pathlib import Path

from covtrans import CyclicGroup, GroupSubset, verify_k_covering

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "covtrans"
BENCH = ROOT / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level def and class and each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module, strings: bool) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_in_src_is_reached_by_the_program_or_the_benchmark():
    sources = sorted(SRC.glob("*.py"))
    bench = sorted(BENCH.glob("*.py"))
    assert sources and bench, (SRC, BENCH)
    used = set()
    for path in sources:
        if path.name != "__init__.py":
            used |= _references(_parse(path), strings=False)
    for path in bench:
        used |= _references(_parse(path), strings=True)
    unused = [
        f"{path.stem}.{qualified}"
        for path in sources
        for qualified, name in _definitions(_parse(path))
        if name not in used
    ]
    assert unused == [], f"defined in src/covtrans but reached only by tests: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def _documents_as_asdict(node: ast.ClassDef) -> bool:
    """Whether the class has a document() method that returns asdict(self)."""
    return any(
        isinstance(item, ast.FunctionDef)
        and item.name == "document"
        and any(
            isinstance(r, ast.Return)
            and isinstance(r.value, ast.Call)
            and isinstance(r.value.func, ast.Name)
            and r.value.func.id == "asdict"
            and [getattr(a, "id", None) for a in r.value.args] == ["self"]
            for r in ast.walk(item)
        )
        for item in node.body
    )


def _dataclasses(tree: ast.Module):
    """Each top-level dataclass with its field names."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            yield node, fields


def test_every_dataclass_field_is_read_by_the_program_or_the_benchmark():
    sources = sorted(SRC.glob("*.py"))
    read = set()
    for path in sources:
        if path.name != "__init__.py":
            read |= {
                node.attr
                for node in ast.walk(_parse(path))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
    for path in sorted(BENCH.glob("*.py")):
        read |= _references(_parse(path), strings=True)
    unread, exempt = [], []
    for path in sources:
        for node, fields in _dataclasses(_parse(path)):
            if _documents_as_asdict(node):
                exempt.append(node.name)
            else:
                unread += [f"{path.stem}.{node.name}.{f}" for f in fields if f not in read]
    assert "StageAdmissibility" in exempt  # its exempt field is read only through asdict
    assert unread == [], f"dataclass fields that src/covtrans and bench never read: {unread}"


def _traced_k_covering_methods() -> set[str]:
    """The keys of bench/tracing.py's _K_COVERING_METHOD, read without importing it."""
    for node in _parse(BENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_K_COVERING_METHOD" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracing.py defines no _K_COVERING_METHOD")


def test_every_k_covering_method_is_attributed_by_the_tracer():
    group = CyclicGroup(8)
    x = GroupSubset.from_indices(group, range(5))
    routes = {  # (k, mode) -> the route it takes
        (9, "exhaustive"): "vacuous",
        (1, "exhaustive"): "k = 1 scan",
        (2, "exhaustive"): "k = 2 quotient set",
        (3, "exhaustive"): "k = 3 scan",
        (3, "sampled:20"): "sampled",
    }
    methods = {
        route: verify_k_covering(group, x, k, mode).method
        for (k, mode), route in routes.items()
    }
    assert methods["vacuous"] == "vacuous"
    traced = _traced_k_covering_methods()
    untraced = {r: m for r, m in methods.items() if r != "vacuous" and m not in traced}
    assert untraced == {}, f"methods bench/tracing.py does not attribute: {untraced}"
