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
from dataclasses import dataclass
from fractions import Fraction
from types import NoneType
from typing import Optional, Union

from .covering import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_SAMPLE_TRIALS,
    VerificationRecord,
    construct_k_covering,
    covering_condition_value,
)
from .errors import FeasibilityError, IntegrityError, SoundnessError
from .groups import CyclicGroup, Epimorphism, cyclic_tower_map
from .subsets import GroupSubset, translate_into
from .util import derive_seed, doc_field

DENSE_STAGE_LIMIT = 1 << 27  # dense enumeration allowed up to this group order
WITNESS_STAGE_LIMIT = 1 << 20  # per-level translator sets materialized up to this

_CLAIM3_SALT = 0x636C33


def thin_bound(i: int) -> int:
    """The thinness budget at level i: 1 at level 0, i above."""
    if i < 0:
        raise ValueError(f"level must be >= 0, got {i}")
    return 1 if i == 0 else i


def extension_admissible(kernel_order: int, k: int, strengthened: bool = True) -> bool:
    """Check the kernel-size hypothesis for extending through a quotient.

    The literal form tests (4k)^k (k log n + log 2) < n at the extension
    parameter k itself; the strengthened form tests it at k+1, which is
    what the kernel's (k+1)-covering construction actually requires.
    """
    j = k + 1 if strengthened else k
    return covering_condition_value(kernel_order, j) < kernel_order


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
        return {
            "stage": self.stage,
            "kernel_order": self.kernel_order,
            "parameter": self.parameter,
            "literal_value": self.literal_value,
            "literal_ok": self.literal_ok,
            "strengthened_value": self.strengthened_value,
            "strengthened_ok": self.strengthened_ok,
            "exempt": self.exempt,
        }


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
        self._group_orders = tuple(group_orders)
        self._groups: dict[int, CyclicGroup] = {}
        self._maps: dict[int, Epimorphism] = {}

    @property
    def depth(self) -> int:
        return len(self.kernel_orders)

    def group_order(self, i: int) -> int:
        if not 0 <= i <= self.depth:
            raise ValueError(f"stage {i} out of range for depth {self.depth}")
        return self._group_orders[i]

    def group(self, i: int) -> CyclicGroup:
        if i not in self._groups:
            self._groups[i] = CyclicGroup(self.group_order(i))
        return self._groups[i]

    def quotient_map(self, s: int) -> Epimorphism:
        """The reduction G_s -> G_{s-1}, for 1 <= s <= depth."""
        phi = self._maps.get(s)
        if phi is None:
            if not 1 <= s <= self.depth:
                raise ValueError(f"stage {s} out of range for depth {self.depth}")
            phi = self._maps[s] = cyclic_tower_map(self.group_order(s - 1), self.group_order(s))
        return phi

    def project(self, d: int, i: int, x: int) -> int:
        """Composed projection G_d -> G_i (i <= d): reduction mod |G_i|."""
        orders = self._group_orders  # one entry per stage 0..depth
        if not 0 <= i <= d < len(orders):
            raise ValueError(f"invalid projection {d} -> {i} at depth {self.depth}")
        return x % orders[i]

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
        v, b = divmod(x, self.modulus)
        # base digit first: it rejects most elements, and a cover test
        # shifts the cover's whole mask
        return b in self.base and v in self.kernel_cover

    def __repr__(self) -> str:
        return f"FactoredSubset({self.group.name}, size={self.size})"


StageSet = Union[GroupSubset, FactoredSubset]


@dataclass
class TowerStage:
    """Stage s of a tower: X_s as a digit product over X_{s-1}, with its evidence.

    Only what cannot be derived is stored.  The kernel cover L_s is
    subset.kernel_cover, which the lift and membership both read; the stage
    map and the admissibility report come from the TowerSpec, and the
    measure is |X_s| / |G_s|.  seed is the stage's derived seed, attempts
    the construction attempts L_s took and verification the record of its
    s-covering check; the singleton cover of stage 1 takes 0 attempts and
    has no verification.
    """

    index: int
    subset: FactoredSubset
    seed: int
    attempts: int
    verification: VerificationRecord | None

    def document(self) -> dict:
        subset, cover = self.subset, self.subset.kernel_cover
        measure = Fraction(subset.size, subset.group.order)
        return {
            "stage": self.index,
            "group_order": subset.group.order,
            "kernel_order": cover.group.order,
            "covering_k": self.index,
            "seed": self.seed,
            "attempts": self.attempts,
            "cover_size": cover.size,
            "set_size": subset.size,
            "measure": f"{measure.numerator}/{measure.denominator}",
            "cover": cover.indices(),
            "verification": self.verification.document() if self.verification else None,
        }


def extend_covering(
    phi: Epimorphism,
    base: StageSet,
    k: int,
    *,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
    trials: int = DEFAULT_SAMPLE_TRIALS,
) -> TowerStage:
    """Extend a covering set through phi using a (k+1)-covering of the kernel.

    phi must be the cyclic reduction C_{N n} -> C_N onto the base set's
    group.  Returns the stage with index k + 1 whose set
    X' = {b + N v : b in X, v in L} satisfies: pi(X') = X exactly,
    |X'| = |L| |X| <= n |X| / 2, and every subset of the source of size at
    most k+1 whose image translates into X translates into X'.  At k = 0 a
    1-covering is any nonempty subset, so L is the singleton identity, no
    randomness is consumed and the stage records 0 attempts and no
    verification.
    """
    if not phi.is_cyclic_reduction or phi.target.order != base.group.order:
        raise ValueError(
            f"{phi.name} is not the cyclic reduction onto {base.group.name}: "
            f"stage sets are digit products over a cyclic chain"
        )
    if k < 0:
        raise FeasibilityError(f"extension parameter must be >= 0, got {k}")
    if base.size == 0:
        raise FeasibilityError("cannot extend an empty covering set")
    kernel = phi.kernel_group
    if kernel.order < 2:
        raise FeasibilityError(
            "extension needs a nontrivial kernel: the halving bound is vacuously "
            "false through an isomorphism"
        )
    if k == 0:
        cover = GroupSubset.from_indices(kernel, [kernel.identity])
        attempts, verification = 0, None
    else:
        if not extension_admissible(kernel.order, k, strengthened=True):
            raise FeasibilityError(
                f"kernel order {kernel.order} too small for extension parameter {k}: "
                f"literal (4k)^k(k log n + log 2) = "
                f"{covering_condition_value(kernel.order, k):.6g}, strengthened "
                f"{covering_condition_value(kernel.order, k + 1):.6g}, both must be < n"
            )
        certificate = construct_k_covering(
            kernel,
            k + 1,
            seed=seed,
            max_attempts=max_attempts,
            mode=mode,
            trials=trials,
        )
        cover = certificate.covering_set
        attempts, verification = certificate.family.attempts_used, certificate.family.verification
    subset = FactoredSubset(base, cover)
    if 2 * subset.size > kernel.order * base.size:
        raise SoundnessError(
            f"extension size {subset.size} exceeds n|X|/2 = {kernel.order * base.size / 2}"
        )
    return TowerStage(
        index=k + 1, subset=subset, seed=seed, attempts=attempts, verification=verification
    )


class Tower:
    """A tower: spec, seed, and the stages appended so far over X_0 = {e}."""

    def __init__(self, spec: TowerSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.stages: list[TowerStage] = []
        self._dense_masks: dict[int, int] = {}
        self._base = GroupSubset.from_indices(spec.group(0), [0])

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
        if not 0 <= x < self.spec.group_order(i):
            raise ValueError(f"index {x} out of range for stage {i}")
        return x in self.stage_set(i)

    def set_size(self, i: int) -> int:
        return self.stage_set(i).size

    def dense_mask(self, i: int) -> int:
        """Bitmask of X_i over G_i; only for dense-representable stages.

        X_i is X_{i-1} shifted by N v for each v in L_i, N = |G_{i-1}|.
        """
        if i not in self._dense_masks:
            if self.spec.group_order(i) > DENSE_STAGE_LIMIT:
                raise MemoryError(f"stage {i} group order exceeds the dense limit")
            subset = self.stage_set(i)
            if i == 0:
                bits = subset.bits
            else:
                below, step = self.dense_mask(i - 1), subset.modulus
                bits = 0
                for v in subset.kernel_cover.indices():
                    bits |= below << (step * v)
            self._dense_masks[i] = bits
        return self._dense_masks[i]

    def measures(self) -> list[Fraction]:
        return [Fraction(stage.subset.size, stage.subset.group.order) for stage in self.stages]

    def warnings(self) -> list[str]:
        out = []
        for stage in self.stages:
            adm = self.spec.admissibility(stage.index)
            if adm.literal_ok and not adm.strengthened_ok:
                out.append(
                    f"stage {adm.stage}: admissible under the literal hypothesis "
                    f"({adm.literal_value:.6g} < {adm.kernel_order}) but not the "
                    f"strengthened one ({adm.strengthened_value:.6g})"
                )
        return out

    def document(self) -> dict:
        return {
            "kind": "tower",
            "spec": self.spec.describe(),
            "kernel_orders": list(self.spec.kernel_orders),
            "depth": self.depth,
            "seed": self.seed,
            "section": "least-nonnegative-representative",
            "admissibility": [
                self.spec.admissibility(stage.index).document() for stage in self.stages
            ],
            "stages": [stage.document() for stage in self.stages],
            "warnings": self.warnings(),
        }


def build_tower(
    spec: TowerSpec,
    seed: int,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
    trials: int = DEFAULT_SAMPLE_TRIALS,
    verify_claims: bool = True,
    claim3_samples: int = 100,
) -> Tower:
    """Build every stage, then check the nesting/size/translation claims.

    Stage s needs the strengthened admissibility of its kernel at parameter
    k = s-1; stage 1 is exempt because the singleton identity is already a
    1-covering.  Claim checks: projection containment from how each stage
    set is built (see check_projection_claim); the 2^{-i} measure bound as an
    exact integer comparison; and sampled thin-set translations.
    """
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
    tower = Tower(spec, seed)
    for s in range(1, spec.depth + 1):
        stage = extend_covering(
            spec.quotient_map(s),
            tower.stage_set(s - 1),
            s - 1,
            seed=derive_seed(seed, s),
            max_attempts=max_attempts,
            mode=mode,
            trials=trials,
        )
        order = spec.group_order(s)
        if stage.subset.size * (2**s) > order:
            raise SoundnessError(
                f"stage {s} breaks the measure bound: |X_{s}| = {stage.subset.size} "
                f"> |G_{s}| / 2^{s} = {order / 2 ** s}"
            )
        tower.stages.append(stage)
    if verify_claims:
        check_projection_claim(tower)
        check_translation_claim(tower, samples=claim3_samples)
    return tower


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
    if tower.depth == 0:
        return
    rng = random.Random(derive_seed(tower.seed, _CLAIM3_SALT))
    for _ in range(samples):
        thin = sample_thin_set(tower.spec, tower.depth, rng)
        translate_thin(tower, thin, collect_witness_sets=False)


@dataclass(frozen=True)
class ThinSet:
    """Elements of G_d whose level-i images stay within the thinness budget."""

    depth: int
    elements: tuple[int, ...]
    projections: tuple[tuple[int, ...], ...]  # index i = image in G_i, i = 0..depth

    @property
    def size(self) -> int:
        return len(self.elements)


def make_thin_set(spec: TowerSpec, depth: int, elements) -> ThinSet:
    """Sort, project and validate an element list into a ThinSet."""
    if not 0 <= depth <= spec.depth:
        raise ValueError(f"depth {depth} out of range for {spec.describe()}")
    elems = tuple(sorted(set(int(x) for x in elements)))
    order = spec.group_order(depth)
    for x in elems:
        if not 0 <= x < order:
            raise ValueError(f"element {x} out of range for stage {depth}")
    projections = [elems]
    for i in range(depth - 1, -1, -1):
        projections.append(tuple(sorted({spec.project(i + 1, i, x) for x in projections[-1]})))
    projections.reverse()
    for i, image in enumerate(projections):
        if len(image) > thin_bound(i):
            raise FeasibilityError(
                f"set is not thin: level {i} image has {len(image)} elements "
                f"(budget {thin_bound(i)})"
            )
    return ThinSet(depth=depth, elements=elems, projections=tuple(projections))


def thin_set_valid(spec: TowerSpec, thin: ThinSet) -> bool:
    """Recompute projections from scratch and recheck the thinness budget."""
    try:
        rebuilt = make_thin_set(spec, thin.depth, thin.elements)
    except (FeasibilityError, ValueError):
        return False
    return rebuilt.projections == thin.projections


def sample_thin_set(
    spec: TowerSpec, depth: int, rng: random.Random, fullness: float = 1.0
) -> ThinSet:
    """Sample a random maximal fiber chain, then keep elements with prob. fullness.

    Level 1 fixes a single fiber; level i draws at most i coset
    representatives inside the previously chosen fibers, so the thinness
    invariant holds by construction.
    """
    if not 0 <= depth <= spec.depth:
        raise ValueError(f"depth {depth} out of range for {spec.describe()}")
    if not 0.0 < fullness <= 1.0:
        raise ValueError(f"fullness must be in (0, 1], got {fullness}")
    randrange = rng.randrange
    levels: list[list[int]] = [[0]]
    for i in range(1, depth + 1):
        phi = spec.quotient_map(i)
        mul, embed, section = phi.source.mul, phi.embed_kernel, phi.section
        kernel_order = phi.kernel_order
        prev = levels[i - 1]
        chosen: list[int] = []
        for _ in range(thin_bound(i)):
            h = prev[randrange(len(prev))]
            x = mul(embed(randrange(kernel_order)), section(h))
            if x not in chosen:
                chosen.append(x)
        levels.append(chosen)
    candidates = levels[depth]
    if fullness >= 1.0:
        kept = candidates
    else:
        kept = [x for x in candidates if rng.random() < fullness]
    return make_thin_set(spec, depth, kept)


@dataclass(frozen=True)
class Slalom:
    """Per-level subsets S_0, ..., S_d with |S_i| within the thinness budget."""

    levels: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def make_slalom(spec: TowerSpec, levels) -> Slalom:
    packed = tuple(tuple(sorted(set(int(x) for x in level))) for level in levels)
    if len(packed) - 1 > spec.depth:
        raise ValueError(f"slalom depth {len(packed) - 1} exceeds {spec.describe()}")
    for i, level in enumerate(packed):
        if len(level) > thin_bound(i):
            raise FeasibilityError(
                f"slalom level {i} has {len(level)} elements (budget {thin_bound(i)})"
            )
        order = spec.group_order(i)
        for x in level:
            if not 0 <= x < order:
                raise ValueError(f"slalom level {i} element {x} out of range")
    return Slalom(levels=packed)


def slalom_pullback(spec: TowerSpec, slalom: Slalom) -> ThinSet:
    """Elements of G_d whose every level-i image lies in S_i, as a ThinSet.

    The level-i image of the result sits inside S_i, so the result is thin;
    this realizes the finite-depth pullback of a slalom through the
    diagonal embedding into the product of the quotients.
    """
    d = slalom.depth
    if d > spec.depth:
        raise ValueError(f"slalom depth {d} exceeds {spec.describe()}")
    level_sets = [set(level) for level in slalom.levels]
    kept = [
        x
        for x in slalom.levels[d]
        if all(spec.project(d, i, x) in level_sets[i] for i in range(d))
    ]
    return make_thin_set(spec, d, kept)


@dataclass
class ThinTranslation:
    """A translator g with g*Y inside X_d, plus its stagewise lifting chain."""

    depth: int
    translator: int
    stage_translators: tuple[int, ...]  # g_0, ..., g_d with pi(g_{i+1}) = g_i
    kernel_shifts: tuple[int, ...]  # u_1, ..., u_d in kernel coordinates
    witness_levels: list[Optional[GroupSubset]]  # T_i at level i, when materialized


def translate_thin(
    tower: Tower,
    thin: ThinSet,
    *,
    collect_witness_sets: bool = True,
) -> ThinTranslation:
    """Constructive stagewise translation of a thin set into the top stage.

    Given g_i with g_i * Y_i inside X_i, the lift takes the canonical
    preimage of g_i, reads off the kernel offsets of the shifted fiber
    elements, and translates that offset set into the stage's kernel cover
    (smallest kernel element first); the shifted preimage is g_{i+1}.  A
    failed lift contradicts the per-stage covering guarantee and raises
    SoundnessError with the offending state.

    The result is verified once, at the top: every g * y, y in Y, is tested
    by digit membership in X_d.  That test reads every mixed-radix digit of
    g * y against its stage cover, so it covers every lower level of the
    chain as well; a wrong shift or an unsound stage set anywhere in the
    chain raises SoundnessError there.  The lift goes through the stage
    maps and the check through divmod, so the two share no code path.
    """
    d = thin.depth
    if d > tower.depth:
        raise ValueError(f"thin set depth {d} exceeds tower depth {tower.depth}")
    g = 0
    chain = [0]
    shifts: list[int] = []
    for s in range(1, d + 1):
        stage = tower.stages[s - 1]
        phi, cover = tower.spec.quotient_map(s), stage.subset.kernel_cover
        mul, inv = phi.source.mul, phi.source.inv
        g_tilde = phi.section(g)
        offsets = set()
        for y in thin.projections[s]:
            w = mul(g_tilde, y)
            offsets.add(phi.kernel_coords(mul(w, inv(phi.section(phi.map(w))))))
        u = translate_into(phi.kernel_group, sorted(offsets), cover)
        if u is None:
            raise SoundnessError(
                f"stage {s}: offsets {sorted(offsets)} have no translate into the "
                f"{s}-cover of size {cover.size}; the cover's verification was "
                f"{stage.verification.mode if stage.verification else 'trivial'}"
            )
        g = mul(phi.embed_kernel(u), g_tilde)
        chain.append(g)
        shifts.append(u)
    top = tower.spec.group(d)
    for y in thin.elements:
        if not tower.member(d, top.mul(g, y)):
            raise SoundnessError(f"final translator {g} fails membership at depth {d}")
    witness_levels: list[Optional[GroupSubset]] = []
    if collect_witness_sets:
        for i in range(d + 1):
            witness_levels.append(_witness_level(tower, thin, i))
    return ThinTranslation(
        depth=d,
        translator=g,
        stage_translators=tuple(chain),
        kernel_shifts=tuple(shifts),
        witness_levels=witness_levels,
    )


def _witness_level(tower: Tower, thin: ThinSet, i: int) -> GroupSubset | None:
    """T_i at level i: all h in G_i with h * Y_i inside X_i (exact bitmask)."""
    group = tower.spec.group(i)
    if group.order > WITNESS_STAGE_LIMIT:
        return None
    mask = tower.dense_mask(i)
    acc = (1 << group.order) - 1
    x_subset = GroupSubset(group, mask)
    for y in thin.projections[i]:
        acc &= x_subset.right_translate(group.inv(y)).bits
    return GroupSubset(group, acc)


def pullback_dense(phi: Epimorphism, target_bits: int) -> int:
    """Bitmask over C_{m n} of the preimage of a bitmask over C_m, phi reducing mod m."""
    m = phi.target.order
    if not phi.is_cyclic_reduction or target_bits < 0 or target_bits >> m:
        raise ValueError(f"{phi.name} is not a cyclic reduction onto the bitmask's carrier")
    repunit = ((1 << phi.source.order) - 1) // ((1 << m) - 1)
    return target_bits * repunit


def witness_sets_nested(tower: Tower, witness_levels: list[Optional[GroupSubset]]) -> bool:
    """Check T_{i+1} within the pullback of T_i wherever both materialized."""
    for i in range(len(witness_levels) - 1):
        low, high = witness_levels[i], witness_levels[i + 1]
        if low is None or high is None:
            continue
        lifted = pullback_dense(tower.spec.quotient_map(i + 1), low.bits)
        if high.bits & ~lifted:
            return False
    return True


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
        image = {spec.project(d, i, x) for x in elems}
        ratio = math.log(len(image)) / math.log(spec.group_order(i))
        best = ratio if best is None else min(best, ratio)
    return best


def tower_from_document(doc: dict) -> Tower:
    """Rebuild a tower from its serialized document, membership bit-exact.

    Stages are appended to one Tower exactly as build_tower appends them,
    each over the stage set below, so the rebuilt tower re-emits its
    document: every stage keeps its seed, attempts and verification record.
    A missing or mistyped field raises IntegrityError naming it.  The covers
    (nonempty, inside their kernels), the listed sizes and the halving bound
    2|L_s| <= n_{s-1} are checked again and raise IntegrityError when
    broken.  The measure bound |X_s| 2^s <= |G_s| needs no check of its own:
    |X_s| = |L_1| ... |L_s| and |G_s| = n_0 ... n_{s-1}, so it holds once
    every stage up to s halves.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind != "tower":
        raise IntegrityError(f"not a tower document: kind={kind!r}")
    try:
        spec = TowerSpec(doc_field(doc, "kernel_orders", list))
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"kernel_orders: {exc}") from exc
    tower = Tower(spec, doc_field(doc, "seed", int))
    stage_docs = doc_field(doc, "stages", list)
    if len(stage_docs) != spec.depth:
        raise IntegrityError(
            f"tower document lists {len(stage_docs)} stages for depth {spec.depth}"
        )
    for s, stage_doc in enumerate(stage_docs, start=1):
        where = f"stage {s}"
        kernel = spec.quotient_map(s).kernel_group
        try:
            cover = GroupSubset.from_indices(kernel, doc_field(stage_doc, "cover", list, where))
            subset = FactoredSubset(tower.stage_set(s - 1), cover)
        except (TypeError, ValueError) as exc:
            raise IntegrityError(f"{where}: {exc}") from exc
        cover_size = doc_field(stage_doc, "cover_size", int, where)
        if cover.size != cover_size:
            raise IntegrityError(
                f"{where}: cover_size {cover_size} disagrees with {cover.size} listed elements"
            )
        if 2 * cover.size > kernel.order:
            raise IntegrityError(
                f"{where}: cover of size {cover.size} is over half the kernel "
                f"order {kernel.order}"
            )
        set_size = doc_field(stage_doc, "set_size", int, where)
        if subset.size != set_size:
            raise IntegrityError(
                f"{where}: set_size {set_size} disagrees with the factored product {subset.size}"
            )
        raw = doc_field(stage_doc, "verification", (dict, NoneType), where)
        tower.stages.append(
            TowerStage(
                index=s,
                subset=subset,
                seed=doc_field(stage_doc, "seed", int, where),
                attempts=doc_field(stage_doc, "attempts", int, where),
                verification=None if raw is None else _load_verification(raw, where),
            )
        )
    return tower


def _load_verification(raw: dict, where: str) -> VerificationRecord:
    where = f"{where} verification"
    witness = doc_field(raw, "witness", (list, NoneType), where)
    return VerificationRecord(
        mode=doc_field(raw, "mode", str, where),
        result=doc_field(raw, "result", bool, where),
        trials=doc_field(raw, "trials", (int, NoneType), where),
        witness=None if witness is None else tuple(witness),
    )
