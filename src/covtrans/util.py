"""Shared plumbing: bit helpers, seed derivation, canonical serialization."""

from __future__ import annotations

import json
import os

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_STEP_BUDGET = 10**8
BUDGET_ENV_VAR = "COVTRANS_BUDGET"


def popcount(x: int) -> int:
    return x.bit_count()


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
    child, so parallel attempt racing stays reproducible.
    """
    x = _mix64((master & _MASK64) ^ _GOLDEN)
    for s in salts:
        x = _mix64((x + _GOLDEN + (s & _MASK64)) & _MASK64)
    return x


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


def canonical_json(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-ordered keys, 12-significant-digit reals.

    Stock json.dumps leaves float formatting to repr, which does not pin the
    byte representation we promise for certificates.
    """
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
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
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            out.append(pad)
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad)
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
