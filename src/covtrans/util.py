"""Shared plumbing: bit helpers, seed derivation, canonical serialization."""

from __future__ import annotations

import json
import os
import random
import struct
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .errors import IntegrityError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_STEP_BUDGET = 10**8
BUDGET_ENV_VAR = "COVTRANS_BUDGET"
_INDENT = 2  # spaces per nesting level in canonical_json


def lowest_set_bit(x: int) -> int | None:
    """Index of the least significant set bit, or None for 0."""
    if x == 0:
        return None
    return (x & -x).bit_length() - 1


_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def iter_set_bits(x: int):
    """Yield set-bit indices of x >= 0 in ascending order.

    Decodes the little-endian byte image once, so the cost is linear in the
    bit length (clearing bits one by one would copy the int each time).
    """
    base = 0
    for b in x.to_bytes((x.bit_length() + 7) >> 3, "little"):
        if b:
            for j in _BYTE_BITS[b]:
                yield base + j
        base += 8


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seed(master: int, *salts: int) -> int:
    """Derive a child 64-bit seed from a master seed and salt indices.

    Splitmix-style mixing; the same (master, salts) always yields the same
    child, so each attempt, stage and sample stream draws from a seed of its
    own and every document regenerates from its master seed.
    """
    x = _mix64((master & _MASK64) ^ _GOLDEN)
    for s in salts:
        x = _mix64((x + _GOLDEN + (s & _MASK64)) & _MASK64)
    return x


_DRAW_BATCH = 4096  # Mersenne Twister words per getrandbits call in uniform_draws
_DRAW_WORDS = struct.Struct(f"<{_DRAW_BATCH}I")


def uniform_draws(seed: int, n: int):
    """Endless iterator of the values random.Random(seed).randrange(n) returns, in order.

    It copies CPython's _randbelow_with_getrandbits for n < 2^32: each
    candidate is one 32-bit Mersenne Twister output shifted right by
    32 - n.bit_length(), kept if below n.  word >> shift < n holds exactly
    when word < n << shift, so one list comprehension per batch compares
    each raw word with n << shift and shifts only the kept ones.  The
    outputs come 4096 at a time as the words of one getrandbits(32 * 4096)
    call, lowest word first, so no Python call is made per draw.  Larger n,
    which take several words per candidate, fall back to randrange itself.
    tests/test_subsets.py::test_uniform_draws_equal_randrange pins the copy.
    """
    if n < 1:
        raise ValueError(f"cannot draw from an empty range, n = {n}")
    rng = random.Random(seed)
    width = n.bit_length()
    if width > 32:
        return map(rng.randrange, repeat(n))
    getrandbits, unpack = rng.getrandbits, _DRAW_WORDS.unpack
    shift = 32 - width
    limit = n << shift

    def batches():
        while True:
            words = unpack(getrandbits(32 * _DRAW_BATCH).to_bytes(4 * _DRAW_BATCH, "little"))
            yield [w >> shift for w in words if w < limit]

    return chain.from_iterable(batches())


def step_budget() -> int:
    """Elementary-step budget for exhaustive verification (env-overridable)."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_STEP_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def format_real(x: float) -> str:
    """Reals are always printed with 12 significant digits, '.' separator."""
    return format(float(x), ".12g")


def doc_field(doc, key: str, kind, where: str = "document"):
    """doc[key], whose type must be kind or one of a tuple of kinds, exactly.

    Exact types, because documents hold plain JSON values and a bool is an
    int to isinstance.  A document that is not a dict, lacks the field or
    holds a value of another type raises IntegrityError naming the field.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise IntegrityError(f"{where}: missing field {key!r}")
    value = doc[key]
    if type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
        raise IntegrityError(f"{where}: field {key!r} has type {type(value).__name__}")
    return value


def require_indices(values: list, where: str) -> None:
    """Raise IntegrityError naming where unless values is a list of exact ints.

    Exact types for the reason doc_field gives: JSON true would otherwise
    pass as index 1.  Loaders call this once per listed set, so that
    GroupSubset.from_indices, which the tower build, shrink and the exact
    search's winner also go through on indices they made, stays bare: its
    range check is one min and one max over the indices.
    """
    if type(values) is not list:
        raise IntegrityError(f"{where} has type {type(values).__name__}")
    for v in values:
        if type(v) is not int:
            raise IntegrityError(f"{where}: entry {json.dumps(v)} has type {type(v).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 12-significant-digit reals.

    Stock json.dumps leaves float formatting to repr, which does not pin the
    byte representation we promise for certificates.  Strings and keys are
    quoted by encode_basestring_ascii, the function json.dumps(str) calls
    with its default settings, so a float-free document with string keys
    prints exactly as json.dumps(obj, indent=2) prints it.
    """
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out)


def _emit(obj, out: list[str], level: int) -> None:
    pad = " " * (_INDENT * (level + 1))
    close_pad = " " * (_INDENT * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_real(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            out.append(pad)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _emit(value, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {int}:
            # member lists, the bulk of every document: one join, same bytes
            out.append(f"[\n{pad}" + f",\n{pad}".join(map(str, obj)) + f"\n{close_pad}]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
