"""Shared plumbing: bit helpers, seed derivation, canonical serialization."""

from __future__ import annotations

import json
import os
import random
import struct
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from types import NoneType

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


def lane_copies(value: int, lane_bytes: int, count: int) -> int:
    """count copies of value, one per lane of lane_bytes bytes, lowest lane first."""
    return int.from_bytes(value.to_bytes(lane_bytes, "little") * count, "little")


def uniform_draws(seed: int, n: int):
    """Endless iterator of the values random.Random(seed).randrange(n) returns, in order.

    It copies CPython's _randbelow_with_getrandbits for n < 2^31: each
    candidate is one 32-bit Mersenne Twister output shifted right by
    32 - width, width = n.bit_length(), kept if below n.  The words come
    4096 at a time from one getrandbits(32 * 4096) call, lowest word first,
    and are decided in 32-bit lanes with no Python call per word: one shift
    and one mask give every candidate, and taking them from 2^width + n - 1
    leaves bit `width` set exactly in the lanes of candidates below n, with
    no borrow between lanes since width < 32.  Masked to that bit, byte
    width // 8 of each lane is the keep flag, and itertools.compress keeps
    the unpacked candidates whose flag is not zero.  Larger n, whose widths
    of 32 and more would carry out of a lane, fall back to randrange.
    tests/test_subsets.py::test_uniform_draws_equal_randrange pins the copy.
    """
    if n < 1:
        raise ValueError(f"cannot draw from an empty range, n = {n}")
    rng = random.Random(seed)
    width = n.bit_length()
    if width >= 32:
        return map(rng.randrange, repeat(n))
    getrandbits, unpack = rng.getrandbits, _DRAW_WORDS.unpack
    shift, size = 32 - width, 4 * _DRAW_BATCH
    lows, tops, marks = (
        lane_copies(x, 4, _DRAW_BATCH) for x in ((1 << width) - 1, (1 << width) + n - 1, 1 << width)
    )
    mark_byte = width >> 3

    def batches():
        while True:
            candidates = getrandbits(32 * _DRAW_BATCH) >> shift & lows
            keep = ((tops - candidates) & marks).to_bytes(size, "little")[mark_byte::4]
            yield compress(unpack(candidates.to_bytes(size, "little")), keep)

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
    _emit(obj, out, "\n")
    return "".join(out)


# the text of each JSON scalar, by exact type: documents hold plain JSON values
_SCALARS = {
    NoneType: lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: format_real,
    str: encode_basestring_ascii,
}


def _emit(obj, out: list[str], newline: str) -> None:
    """Append obj's text to out; newline is a line break plus the indent of obj's line."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
        return
    if not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + " " * _INDENT
    sep = "," + inner
    if isinstance(obj, dict):
        for i, (key, value) in enumerate(obj.items()):
            if type(key) is not str:
                raise TypeError(f"document keys must be strings, got {key!r}")
            out.append((sep if i else "{" + inner) + encode_basestring_ascii(key) + ": ")
            _emit(value, out, inner)
        out.append(newline + "}")
    elif set(map(type, obj)) == {int}:
        # member lists, the bulk of every document: one join, same bytes
        out.append("[" + inner + sep.join(map(str, obj)) + newline + "]")
    else:
        for i, value in enumerate(obj):
            out.append(sep if i else "[" + inner)
            _emit(value, out, inner)
        out.append(newline + "]")
