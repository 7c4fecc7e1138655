"""Staged covering sets in chains of finite cyclic quotients.

A tower over kernel orders (n_0, ..., n_{d-1}) is the chain of cyclic
groups G_0 = C1, G_1 = C_{n_0}, G_2 = C_{n_0 n_1}, ... with reduction maps
between consecutive stages.  Each stage carries a subset X_i with
pi(X_{i+1}) = X_i and |X_i| <= |G_i| / 2^i, built by extending the previous
stage's set with a covering subset L_{i+1} of the kernel C_{n_i}.  In
mixed-radix digits X_{i+1} = {b + |G_i| v : b in X_i, v in L_{i+1}}, so X_d
is the digit product L_1 x ... x L_d: membership costs one divmod per stage
even when |G_d| is in the billions, and reduction mod |G_i| maps X_{i+1} onto
X_i by integer arithmetic.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from operator import lt
from types import NoneType

from .covering import (
    DEFAULT_MAX_ATTEMPTS,
    VerificationRecord,
    construct_k_covering,
    covering_condition_value,
    parse_mode,
    verify_k_covering,
)
from .errors import BudgetExceededError, FeasibilityError, IntegrityError, SoundnessError
from .groups import CyclicGroup, Epimorphism
from .subsets import GroupSubset, translate_into
from .util import canonical_json, derive_seed, doc_field, require_indices

_CLAIM3_SALT = 0x636C33


def thin_bound(i: int) -> int:
    """The thinness budget at level i: 1 at level 0, i above."""
    if i < 0:
        raise ValueError(f"level must be >= 0, got {i}")
    return 1 if i == 0 else i


@dataclass(frozen=True)
class StageAdmissibility:
    """Both admissibility readings for one stage, for honest error reports."""

    stage: int
    kernel_order: int
    parameter: int  # extension parameter k = stage - 1
    literal_value: float
    literal_ok: bool
    strengthened_value: float
    strengthened_ok: bool
    exempt: bool  # stage 1 always builds with the singleton kernel cover

    def document(self) -> dict:
        return asdict(self)


class TowerSpec:
    """Kernel orders plus the derived cyclic quotient chain."""

    def __init__(self, kernel_orders):
        orders = tuple(int(n) for n in kernel_orders)
        for n in orders:
            if n < 2:
                raise ValueError(f"kernel orders must be >= 2 (strictly descending chain), got {n}")
        self.kernel_orders = orders
        group_orders = [1]
        for n in orders:
            group_orders.append(group_orders[-1] * n)
        self.group_orders = tuple(group_orders)  # |G_0|, ..., |G_depth|
        self._maps: dict[int, Epimorphism] = {}

    @property
    def depth(self) -> int:
        return len(self.kernel_orders)

    def group_order(self, i: int) -> int:
        if not 0 <= i <= self.depth:
            raise ValueError(f"stage {i} out of range for depth {self.depth}")
        return self.group_orders[i]

    def quotient_map(self, s: int) -> Epimorphism:
        """The reduction G_s -> G_{s-1}, for 1 <= s <= depth."""
        phi = self._maps.get(s)
        if phi is None:
            if not 1 <= s <= self.depth:
                raise ValueError(f"stage {s} out of range for depth {self.depth}")
            phi = self._maps[s] = Epimorphism(self.group_order(s - 1), self.group_order(s))
        return phi

    def admissibility(self, s: int) -> StageAdmissibility:
        if not 1 <= s <= self.depth:
            raise ValueError(f"stage {s} out of range for depth {self.depth}")
        n = self.kernel_orders[s - 1]
        k = s - 1
        return StageAdmissibility(
            stage=s,
            kernel_order=n,
            parameter=k,
            literal_value=covering_condition_value(n, k),
            literal_ok=covering_condition_value(n, k) < n,
            strengthened_value=covering_condition_value(n, k + 1),
            strengthened_ok=covering_condition_value(n, k + 1) < n,
            exempt=(s == 1),
        )

    def describe(self) -> str:
        return "tower:" + ",".join(str(n) for n in self.kernel_orders)

    def __repr__(self) -> str:
        return f"TowerSpec({self.describe()})"


def parse_tower_descriptor(descriptor: str) -> TowerSpec:
    text = descriptor.strip()
    if not text.startswith("tower:"):
        raise ValueError(f"unrecognized tower descriptor {text!r}")
    body = text[len("tower:") :]
    if not body:
        raise ValueError(f"tower descriptor lists no kernel orders: {text!r}")
    try:
        orders = [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad kernel order in tower descriptor {text!r}") from exc
    return TowerSpec(orders)


class FactoredSubset:
    """X' = {b + N v : b in X, v in L} in C_{N n}, stored as its two digits.

    N is the order of the base set X's group and L a subset of C_n.  x
    belongs iff divmod(x, N) = (v, b) has b in X and v in L; an x outside
    0..N n - 1 has v outside 0..n - 1 and fails.  Since x mod N = b,
    reduction mod N maps X' onto X, and |X'| = |X| |L| exactly.
    """

    def __init__(self, base, kernel_cover: GroupSubset):
        if base.size == 0:
            raise ValueError("base set must be nonempty")
        if kernel_cover.size == 0:
            raise ValueError("kernel cover must be nonempty")
        self.base = base
        self.kernel_cover = kernel_cover
        self.modulus = base.group.order
        self.group = CyclicGroup(self.modulus * kernel_cover.group.order)
        self.size = base.size * kernel_cover.size

    def __contains__(self, x: int) -> bool:
        # one digit loop down the stages, no recursion: the top digit of each
        # level against that level's cover (one byte of its flag image), then
        # the remainder against the stage-0 set
        level = self
        while type(level) is FactoredSubset:
            v, x = divmod(x, level.modulus)
            if v not in level.kernel_cover:
                return False
            level = level.base
        return x in level

    def __repr__(self) -> str:
        return f"FactoredSubset({self.group.name}, size={self.size})"


StageSet = GroupSubset | FactoredSubset


@dataclass
class TowerStage:
    """Stage s of a tower: X_s as a digit product over X_{s-1}, with its evidence.

    Only what a build cannot re-derive is stored.  The kernel cover L_s is
    subset.kernel_cover, which the lift and membership both read; s is the
    stage's position in the tower, its seed derive_seed(tower seed, s), the
    stage map and the admissibility report come from the TowerSpec, and the
    measure is |X_s| / |G_s|.  attempts counts the construction attempts L_s
    took and verification is the record of its s-covering check; the
    singleton cover of stage 1 takes 0 attempts and has no verification.
    """

    subset: FactoredSubset
    attempts: int
    verification: VerificationRecord | None


def extend_covering(
    kernel_order: int,
    base: StageSet,
    k: int,
    *,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
) -> TowerStage:
    """Extend a covering set of C_N to C_{N n} using a (k+1)-covering of C_n.

    n is kernel_order and N the order of the base set's group.  Returns
    stage k + 1 of a tower, whose set X' = {b + N v : b in X, v in L}
    satisfies: reduction mod N maps X' onto X exactly,
    |X'| = |L| |X| <= n |X| / 2, and every subset of C_{N n} of size at most
    k+1 whose image translates into X translates into X'.  At k = 0 a
    1-covering is any nonempty subset, so L is the singleton identity, no
    randomness is consumed and the stage records 0 attempts and no
    verification; the halving bound 2|L| <= n holds since n >= 2.  Above
    k = 0 the admissibility test is construct_k_covering's covering
    condition at k + 1, which raises FeasibilityError with its value, and
    construct_k_covering owns the halving bound: a union over n/2 raises
    SoundnessError there.  The mode, then max_attempts < 1, are refused
    before anything else, even at k = 0, where no construction runs.
    """
    parse_mode(mode)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if k < 0:
        raise FeasibilityError(f"extension parameter must be >= 0, got {k}")
    if base.size == 0:
        raise FeasibilityError("cannot extend an empty covering set")
    if kernel_order < 2:
        raise FeasibilityError(
            "extension needs a nontrivial kernel: the halving bound is vacuously "
            "false through an isomorphism"
        )
    kernel = CyclicGroup(kernel_order)
    if k == 0:
        cover = GroupSubset.from_indices(kernel, [kernel.identity])
        attempts, verification = 0, None
    else:
        certificate = construct_k_covering(
            kernel, k + 1, seed=seed, max_attempts=max_attempts, mode=mode
        )
        cover = certificate.covering_set
        attempts, verification = certificate.attempts_used, certificate.verification
    return TowerStage(FactoredSubset(base, cover), attempts, verification)


class Tower:
    """A tower: spec, seed, and the stages appended so far over X_0 = {e}."""

    def __init__(self, spec: TowerSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.stages: list[TowerStage] = []
        self._base = GroupSubset.from_indices(CyclicGroup(1), [0])

    @property
    def depth(self) -> int:
        return len(self.stages)

    def stage_set(self, i: int) -> StageSet:
        """X_i; stage 0 is the identity singleton in the trivial group."""
        if i == 0:
            return self._base
        return self.stages[i - 1].subset

    def member(self, i: int, x: int) -> bool:
        """Digit membership test for X_i, one divmod per stage."""
        if not 0 <= i <= self.depth:
            raise ValueError(f"stage {i} out of range for depth {self.depth}")
        if not 0 <= x < self.spec.group_orders[i]:
            raise ValueError(f"index {x} out of range for stage {i}")
        return x in self.stage_set(i)

    def warnings(self) -> list[str]:
        out = []
        for s in range(1, self.depth + 1):
            adm = self.spec.admissibility(s)
            if adm.literal_ok and not adm.strengthened_ok:
                out.append(
                    f"stage {s}: admissible under the literal hypothesis "
                    f"({adm.literal_value:.6g} < {adm.kernel_order}) but not the "
                    f"strengthened one ({adm.strengthened_value:.6g})"
                )
        return out

    def document(self) -> dict:
        return self._document(listed=True)

    def _document(self, listed: bool) -> dict:
        """The tower's document; unless listed, each stage's "cover" is null."""
        positions = range(1, self.depth + 1)
        return {
            "kind": "tower",
            "spec": self.spec.describe(),
            "kernel_orders": list(self.spec.kernel_orders),
            "depth": self.depth,
            "seed": self.seed,
            "section": "least-nonnegative-representative",
            "admissibility": [self.spec.admissibility(s).document() for s in positions],
            "stages": [self._stage_document(s, listed) for s in positions],
            "warnings": self.warnings(),
        }

    def _stage_document(self, s: int, listed: bool) -> dict:
        stage = self.stages[s - 1]
        subset, cover = stage.subset, stage.subset.kernel_cover
        measure = Fraction(subset.size, subset.group.order)
        return {
            "stage": s,
            "group_order": subset.group.order,
            "kernel_order": cover.group.order,
            "covering_k": s,
            "seed": derive_seed(self.seed, s),
            "attempts": stage.attempts,
            "cover_size": cover.size,
            "set_size": subset.size,
            "measure": f"{measure.numerator}/{measure.denominator}",
            # list(cover) decodes the mask without caching the member list on it
            "cover": list(cover) if listed else None,
            "verification": stage.verification.document() if stage.verification else None,
        }


def build_tower(
    spec: TowerSpec,
    seed: int,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
    claim3_samples: int = 100,
) -> Tower:
    """Build every stage, then check the projection and translation claims.

    Stage s needs the strengthened admissibility of its kernel at parameter
    k = s-1 (stage 1 is exempt: the singleton identity is a 1-covering); the
    spec is checked at every stage before any is built, reporting both
    readings.  The measure bound |X_s| 2^s <= |G_s| is not checked again:
    with |X_s| = |L_1| ... |L_s| and |G_s| = n_0 ... n_{s-1} it is the
    product of the halving bounds 2|L_s| <= n_{s-1}, which the singleton
    cover meets at stage 1 and construct_k_covering enforces above it (see
    extend_covering).  Claim checks: projection containment from how each
    stage set is built (see check_projection_claim), and claim3_samples
    sampled thin-set translations.  The mode and max_attempts are checked
    first, so a bad one is refused even at depth 1, where nothing is drawn.
    """
    parse_mode(mode)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if claim3_samples < 0:
        raise ValueError(f"claim3_samples must be >= 0, got {claim3_samples}")
    _require_admissible(spec)
    tower = Tower(spec, seed)
    for s in range(1, spec.depth + 1):
        stage = extend_covering(
            spec.kernel_orders[s - 1],
            tower.stage_set(s - 1),
            s - 1,
            seed=derive_seed(seed, s),
            max_attempts=max_attempts,
            mode=mode,
        )
        tower.stages.append(stage)
    check_projection_claim(tower)
    check_translation_claim(tower, samples=claim3_samples)
    return tower


def _require_admissible(spec: TowerSpec) -> None:
    """Raise FeasibilityError at the first stage s >= 2 whose kernel fails the
    strengthened admissibility, reporting both readings; stage 1 is exempt."""
    for s in range(2, spec.depth + 1):
        adm = spec.admissibility(s)
        if not adm.strengthened_ok:
            raise FeasibilityError(
                f"stage {s} inadmissible: kernel order {adm.kernel_order} at parameter "
                f"k={adm.parameter} needs the strengthened value "
                f"{adm.strengthened_value:.6g} < {adm.kernel_order} "
                f"(literal form gives {adm.literal_value:.6g}, "
                f"{'ok' if adm.literal_ok else 'also failing'})"
            )


def check_projection_claim(tower: Tower) -> None:
    """Every member of X_s projects into X_{s-1}, checked exactly at every stage.

    X_s = {b + N v : b in X_{s-1}, v in L_s} with N = |G_{s-1}|, and
    reduction mod N sends b + N v to b, so pi(X_s) lies in X_{s-1} by
    integer arithmetic once three facts hold: the set is built over
    X_{s-1}, its modulus is |G_{s-1}|, and its cover L_s lives in the stage
    kernel C_{n_{s-1}} (so that b + N v stays in G_s).  Each is checked.
    """
    spec = tower.spec
    for s in range(1, tower.depth + 1):
        subset = tower.stages[s - 1].subset
        if subset.base != tower.stage_set(s - 1):
            raise SoundnessError(f"stage {s}: the set is not built over X_{s - 1}")
        if subset.modulus != spec.group_order(s - 1):
            raise SoundnessError(
                f"stage {s}: modulus {subset.modulus} is not |G_{s - 1}| = "
                f"{spec.group_order(s - 1)}"
            )
        kernel_order = spec.kernel_orders[s - 1]
        if subset.kernel_cover.group.order != kernel_order:
            raise SoundnessError(
                f"stage {s}: the cover lives in {subset.kernel_cover.group.name}, "
                f"not in the stage kernel C{kernel_order}"
            )


def check_translation_claim(tower: Tower, samples: int = 100) -> None:
    """Sampled thin sets all translate into the top stage set."""
    rng = random.Random(derive_seed(tower.seed, _CLAIM3_SALT))
    for _ in range(samples):
        thin = sample_thin_set(tower.spec, tower.depth, rng)
        translate_thin(tower, thin)


@dataclass(frozen=True)
class ThinSet:
    """Sorted elements of G_d whose level-i images {x mod |G_i|} fit thin_bound(i).

    Sampled sets are thin by construction; make_thin_set validates any other.
    """

    depth: int
    elements: tuple[int, ...]


def make_thin_set(spec: TowerSpec, depth: int, elements) -> ThinSet:
    """Sort and validate an outside element list into a ThinSet.

    The one check of thinness; sampled sets are thin by construction.  An
    element out of range is refused by name: the least negative one, else the
    least one at or above |G_depth|.  So is the lowest level i whose image
    {x mod |G_i|} holds more than thin_bound(i) elements.
    """
    if not 0 <= depth <= spec.depth:
        raise ValueError(f"depth {depth} out of range for {spec.describe()}")
    elems = tuple(sorted(set(map(int, elements))))
    orders = spec.group_orders
    if elems and (elems[0] < 0 or elems[-1] >= orders[depth]):
        x = elems[0] if elems[0] < 0 else elems[bisect_left(elems, orders[depth])]
        raise ValueError(f"element {x} out of range for stage {depth}")
    for i in range(depth + 1):
        size = len({x % orders[i] for x in elems})
        if size > thin_bound(i):
            raise FeasibilityError(
                f"set is not thin: level {i} image has {size} elements "
                f"(budget {thin_bound(i)})"
            )
    return ThinSet(depth=depth, elements=elems)


def sample_thin_set(
    spec: TowerSpec, depth: int, rng: random.Random, fullness: float = 1.0
) -> ThinSet:
    """Sample a random maximal fiber chain, then keep elements with prob. fullness.

    Level 1 fixes a single fiber; level i draws at most i coset
    representatives inside the previously chosen fibers.  A pick
    x = prev[r] + |G_{i-1}| v has x mod |G_{i-1}| = prev[r], so each level's
    image lies in its at most thin_bound(i) picks: the set is thin by
    construction and is not validated again.
    """
    if not 0 <= depth <= spec.depth:
        raise ValueError(f"depth {depth} out of range for {spec.describe()}")
    if not 0.0 < fullness <= 1.0:
        raise ValueError(f"fullness must be in (0, 1], got {fullness}")
    # Each draw is CPython's _randbelow_with_getrandbits, the draw behind
    # rng.randrange(n), inlined: getrandbits(n.bit_length()) until below n.
    # Same words, same order, so the same sets and generator state as
    # randrange, without its two Python frames per draw.
    getrandbits = rng.getrandbits
    levels: list[list[int]] = [[0]]
    for i in range(1, depth + 1):
        phi = spec.quotient_map(i)
        mul, embed, section = phi.source.mul, phi.embed_kernel, phi.section
        kernel_order = spec.kernel_orders[i - 1]
        kernel_width = kernel_order.bit_length()
        prev = levels[i - 1]
        count = len(prev)
        count_width = count.bit_length()
        chosen: list[int] = []
        for _ in range(thin_bound(i)):
            r = getrandbits(count_width)
            while r >= count:
                r = getrandbits(count_width)
            v = getrandbits(kernel_width)
            while v >= kernel_order:
                v = getrandbits(kernel_width)
            x = mul(embed(v), section(prev[r]))
            if x not in chosen:
                chosen.append(x)
        levels.append(chosen)
    candidates = levels[depth]
    if fullness >= 1.0:
        kept = candidates
    else:
        kept = [x for x in candidates if rng.random() < fullness]
    return ThinSet(depth=depth, elements=tuple(sorted(kept)))


def translate_thin(tower: Tower, thin: ThinSet) -> int:
    """A translator g with g * Y inside X_d, by stagewise lifting.

    Given g_{s-1} with g_{s-1} * Y_{s-1} inside X_{s-1}, the lift reads the
    top digits (g_{s-1} + y) mod |G_s| // N, N = |G_{s-1}|, of the elements
    y; each depends on y mod |G_s| alone, so they are the level-s image's.
    It translates them into the stage's kernel cover (smallest first) and
    sets g_s = g_{s-1} + N u: integer arithmetic on the spec's orders.  Every
    later step adds a multiple of |G_s|, so g_s is g mod |G_s| and the chain
    is not kept.  A failed lift contradicts the per-stage covering guarantee
    and raises SoundnessError with the offending state.

    Soundness rests on one check, at the top: every g * y, y in Y, is tested
    by digit membership in X_d.  That test reads every mixed-radix digit of
    g * y against its stage cover, so it covers every lower level of the
    chain as well, and it accepts any working translator, however found; a
    wrong shift or an unsound stage set anywhere in the chain raises
    SoundnessError there.  The lift needs one translator per stage, so the
    full translator sets T_i = {h in G_i : h * Y_i inside X_i} are never built.
    """
    d = thin.depth
    if d > tower.depth:
        raise ValueError(f"thin set depth {d} exceeds tower depth {tower.depth}")
    orders = tower.spec.group_orders
    g = 0
    for s in range(1, d + 1):
        stage = tower.stages[s - 1]
        cover = stage.subset.kernel_cover
        modulus, order = orders[s - 1], orders[s]
        offsets = sorted({(g + y) % order // modulus for y in thin.elements})
        u = translate_into(offsets, cover)
        if u is None:
            raise SoundnessError(
                f"stage {s}: offsets {offsets} have no translate into the "
                f"{s}-cover of size {cover.size}; the cover's verification was "
                f"{stage.verification.mode if stage.verification else 'trivial'}"
            )
        g += u * modulus
    top = orders[d]
    member = tower.member
    for y in thin.elements:
        if not member(d, (g + y) % top):
            raise SoundnessError(f"final translator {g} fails membership at depth {d}")
    return g


def dimension_estimate(spec: TowerSpec, elements, depth: int | None = None) -> float:
    """Finite-depth lower envelope of log|image_i| / log|G_i| over 1 <= i <= d."""
    d = spec.depth if depth is None else depth
    if d < 1:
        raise ValueError("dimension estimate needs depth >= 1")
    elems = sorted(set(int(x) for x in elements))
    if not elems:
        raise ValueError("dimension estimate needs a nonempty set")
    order = spec.group_order(d)
    if elems[0] < 0 or elems[-1] >= order:
        raise ValueError(f"elements out of range for stage {d} (order {order})")
    best = None
    for i in range(1, d + 1):
        modulus = spec.group_order(i)
        image = {x % modulus for x in elems}
        ratio = math.log(len(image)) / math.log(modulus)
        best = ratio if best is None else min(best, ratio)
    return best


def tower_from_document(doc: dict) -> Tower:
    """Rebuild a tower from its serialized document, membership bit-exact.

    Stages are appended exactly as build_tower appends them, each over the
    stage set below, with the attempts and verification records a build
    emits (see _load_record).  A missing or mistyped field raises
    IntegrityError naming it; kernel orders and cover entries must be JSON
    integers, and a spec that build_tower refuses as inadmissible is
    refused before any cover is decoded.  A decode allocates by the cover's
    largest listed index, not by the declared kernel order (see
    GroupSubset.from_indices).  The covers (strictly ascending, nonempty,
    inside their kernels) and the halving bounds 2|L_s| <= n_{s-1}, whose
    product is the measure bound, are checked again.  Every other field,
    the stage seeds and stage 1's record included, is derived, so the
    assembled tower must re-emit it: see _require_reemitted.  Then each
    cover above stage 1 is proven s-covering again by verify_k_covering's
    exhaustive check, whatever its record's mode, unless that check refuses
    as over budget: a sampled record is then kept, and an exhaustive one,
    which this budget cannot repeat, raises BudgetExceededError.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind != "tower":
        raise IntegrityError(f"not a tower document: kind={kind!r}")
    orders = doc_field(doc, "kernel_orders", list)
    require_indices(orders, "document: field 'kernel_orders'")
    try:
        spec = TowerSpec(orders)
        _require_admissible(spec)
    except (ValueError, FeasibilityError) as exc:
        raise IntegrityError(f"document: field 'kernel_orders': {exc}") from exc
    tower = Tower(spec, doc_field(doc, "seed", int))
    stage_docs = doc_field(doc, "stages", list)
    if len(stage_docs) != spec.depth:
        raise IntegrityError(
            f"tower document lists {len(stage_docs)} stages for depth {spec.depth}"
        )
    for s, stage_doc in enumerate(stage_docs, start=1):
        where = f"stage {s}"
        kernel = CyclicGroup(spec.kernel_orders[s - 1])
        try:
            listed = doc_field(stage_doc, "cover", list, where)
            require_indices(listed, f"{where}: field 'cover'")
            if not all(map(lt, listed, islice(listed, 1, None))):
                raise IntegrityError(
                    f"{where}: field 'cover' lists an index twice or out of ascending order"
                )
            cover = GroupSubset.from_indices(kernel, listed)
            subset = FactoredSubset(tower.stage_set(s - 1), cover)
        except ValueError as exc:
            raise IntegrityError(f"{where}: {exc} (field 'cover')") from exc
        if 2 * cover.size > kernel.order:
            raise IntegrityError(
                f"{where}: cover of size {cover.size} is over half the kernel "
                f"order {kernel.order}"
            )
        attempts, record = (0, None) if s == 1 else _load_record(stage_doc, where)
        tower.stages.append(TowerStage(subset, attempts, record))
    _require_reemitted(tower, doc)
    for s, stage in enumerate(tower.stages[1:], start=2):
        try:
            witness = verify_k_covering(stage.subset.kernel_cover, s, mode="exhaustive").witness
        except BudgetExceededError as exc:
            if stage.verification.mode == "exhaustive":
                raise BudgetExceededError(
                    f"stage {s}: field 'verification' claims a proof that cannot be repeated: {exc}"
                ) from exc
            continue
        if witness is not None:
            raise IntegrityError(
                f"stage {s}: field 'cover' is not {s}-covering: {list(witness)} has no "
                f"translate into it"
            )
    return tower


def _require_reemitted(tower: Tower, doc: dict) -> None:
    """Raise IntegrityError at the first field of doc that differs from tower's own.

    Sizes, measures, stage seeds, admissibility reports, warnings and each
    record's result and witness are derived from the covers, the tower's
    seed and the loaded records, so a document that contradicts them is
    refused rather than re-emitted changed.  Fields compare as canonical
    JSON text, which keeps 12 significant digits of a real, and by JSON
    type, since that text prints the real 224.0 as 224: only where the
    tower emits a real may the document hold an integer.  The run config
    and the covers, which the tower was built from, are left out: the
    covers are the bulk of the document, and the tower's covers are not
    decoded for the comparison.
    """
    emitted = tower._document(listed=False)
    _require_same_fields(emitted, doc, "document", ("config", "stages"))
    for s, (mine, given) in enumerate(zip(emitted["stages"], doc["stages"]), start=1):
        _require_same_fields(mine, given, f"stage {s}", ("cover",))


def _require_same_fields(emitted: dict, doc: dict, where: str, skip: tuple[str, ...]) -> None:
    for key in emitted:
        if key not in doc:
            raise IntegrityError(f"{where}: missing field {key!r}")
        if key not in skip and not (
            canonical_json(emitted[key]) == canonical_json(doc[key])
            and _same_json_types(emitted[key], doc[key])
        ):
            raise IntegrityError(f"{where}: field {key!r} disagrees with the loaded tower")
    for key in doc:
        if key not in emitted and key not in skip:
            raise IntegrityError(f"{where}: unexpected field {key!r}")


def _same_json_types(mine, given) -> bool:
    """Whether given, which prints as mine does, holds the same JSON types."""
    if isinstance(mine, float):
        return type(given) in (int, float)
    if isinstance(mine, dict):
        return all(map(_same_json_types, mine.values(), given.values()))
    if isinstance(mine, list):
        return all(map(_same_json_types, mine, given))
    return type(given) is type(mine)


def _load_record(stage_doc: dict, where: str) -> tuple[int, VerificationRecord]:
    """The attempts and record of a stage above 1, or IntegrityError naming the field.

    attempts is at least 1, since the record is re-run from attempt
    attempts - 1, and trials (>= 1) is given exactly when the mode is
    sampled.  The record's result and witness are left to _require_reemitted.
    """
    raw = doc_field(stage_doc, "verification", dict, where)
    attempts = doc_field(stage_doc, "attempts", int, where)
    if attempts < 1:
        raise IntegrityError(f"{where}: field 'attempts' must be >= 1, got {attempts}")
    where = f"{where} verification"
    mode = doc_field(raw, "mode", str, where)
    trials = doc_field(raw, "trials", (int, NoneType), where)
    if mode not in ("exhaustive", "sampled"):
        raise IntegrityError(f"{where}: field 'mode' must be 'exhaustive' or 'sampled'")
    if (trials is None) != (mode == "exhaustive") or trials is not None and trials < 1:
        wanted = "null when exhaustive and a count >= 1 when sampled"
        raise IntegrityError(f"{where}: field 'trials' must be {wanted}")
    return attempts, VerificationRecord(mode=mode, result=True, trials=trials)
