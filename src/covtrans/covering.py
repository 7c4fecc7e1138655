"""Randomized intersecting families and k-covering subsets of finite groups.

The constructions draw Bernoulli(p) random subsets, reject draws whose
members exceed the 2pn size cap or fail verification, and emit certificates
recording the seed, the attempt count and the verification mode.  Exhaustive
verification never silently downgrades: above the step budget the caller
gets sampled mode and the certificate says so.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, ConstructionError, FeasibilityError, SoundnessError
from .groups import FiniteGroup
from .subsets import GroupSubset, _translate_bits, random_subset, translates_meet
from .util import derive_seed, lowest_set_bit, step_budget

DEFAULT_MAX_ATTEMPTS = 100
DEFAULT_SAMPLE_TRIALS = 100_000
_PAIRWISE_PRODUCT_LIMIT = 10**4  # n cap for O(n^2) difference-set style scans

_VERIFY_SALT = 0x76657269


def intersecting_family_feasible(n: int, k: int) -> bool:
    """True iff k < (n - log 2) / log n (natural log throughout)."""
    if n < 3:
        raise FeasibilityError(f"group order must be >= 3, got {n}")
    if k < 1:
        raise FeasibilityError(f"family size must be >= 1, got {k}")
    return k < (n - math.log(2)) / math.log(n)


def sample_probability(n: int, k: int) -> float:
    """Element inclusion probability p = ((k log n + log 2) / n)^(1/k)."""
    if not intersecting_family_feasible(n, k):
        raise FeasibilityError(
            f"(n={n}, k={k}) infeasible: needs k < (n - log 2)/log n "
            f"= {(n - math.log(2)) / math.log(n):.6g}"
        )
    p = ((k * math.log(n) + math.log(2)) / n) ** (1.0 / k)
    if not 0.0 < p < 1.0:
        raise SoundnessError(f"sample probability {p} out of (0,1) at (n={n}, k={k})")
    return p


def member_size_cap(n: int, k: int) -> float:
    """Size cap 2pn enforced on every accepted member (a real inequality)."""
    return 2.0 * sample_probability(n, k) * n


def covering_condition(n: int, k: int) -> bool:
    """True iff (4k)^k (k log n + log 2) < n, the k-covering hypothesis."""
    if n < 3:
        raise FeasibilityError(f"group order must be >= 3, got {n}")
    if k < 0:
        raise FeasibilityError(f"covering parameter must be >= 0, got {k}")
    return covering_condition_value(n, k) < n


def covering_condition_value(n: int, k: int) -> float:
    """The left-hand side (4k)^k (k log n + log 2); compare against n."""
    return (4 * k) ** k * (k * math.log(n) + math.log(2))


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of a verification pass; `witness` names the first failure."""

    mode: str  # "exhaustive" | "sampled" | "none"
    result: bool
    trials: int | None = None
    witness: tuple[int, ...] | None = None
    method: str = ""

    def document(self) -> dict:
        return {
            "mode": self.mode,
            "trials": self.trials,
            "result": self.result,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _resolve_mode(mode: str, complete_in_budget: bool) -> str:
    """The mode a verifier runs: auto is exhaustive iff a complete check fits the budget."""
    if mode == "auto":
        return "exhaustive" if complete_in_budget else "sampled"
    if mode in ("exhaustive", "sampled"):
        return mode
    raise ValueError(f"unknown verification mode {mode!r}")


def verify_intersecting(
    group: FiniteGroup,
    subsets: list[GroupSubset],
    mode: str = "auto",
    *,
    trials: int = DEFAULT_SAMPLE_TRIALS,
    seed: int = 0,
) -> VerificationRecord:
    """Check that every tuple of right translates X_1 g_1, ..., X_k g_k meets.

    The X_i g_i meet iff the X_i g_i g_1^{-1} meet, so exhaustive mode scans
    only the n^(k-1) tuples with g_1 = e, by bit-vector intersections.  A
    failing tuple exists iff one with leading index 0 does, and that one
    sorts first, so the witness is still the lexicographically first empty
    tuple over all n^k.  The budget still counts n^k steps.  Sampled mode
    checks `trials` uniform tuples drawn from the given seed, each
    normalised the same way, and reports the tuple as drawn.  A sampled
    trial stops at the first common element (see subsets.translates_meet)
    rather than translating every X_i in full.
    """
    k = len(subsets)
    if k < 1:
        raise ValueError("family must contain at least one subset")
    n = group.order
    for s in subsets:
        s._require_same_carrier(GroupSubset.empty(group))
    scan_in_budget = n**k <= step_budget()
    if _resolve_mode(mode, scan_in_budget) == "exhaustive":
        if not scan_in_budget:
            raise BudgetExceededError(
                f"exhaustive verification needs n^k = {n**k} steps "
                f"(budget {step_budget()}); use sampled mode"
            )
        witness = _exhaustive_intersecting_witness(group, subsets)
        return VerificationRecord(
            mode="exhaustive", result=witness is None, witness=witness, method="tuple-scan"
        )
    randrange = random.Random(seed).randrange
    meets = translates_meet(group, subsets[0], subsets[1:])
    for t in range(trials):
        tup = tuple([randrange(n) for _ in range(k)])
        inv_first = group.inv(tup[0])
        if not meets([group.mul(g, inv_first) for g in tup[1:]]):
            return VerificationRecord(
                mode="sampled", result=False, trials=t + 1, witness=tup, method="tuple-sample"
            )
    return VerificationRecord(mode="sampled", result=True, trials=trials, method="tuple-sample")


def _exhaustive_intersecting_witness(
    group: FiniteGroup, subsets: list[GroupSubset]
) -> tuple[int, ...] | None:
    """Lexicographically first empty translate tuple, scanning only g_1 = e.

    The X_i g_i meet iff the X_i g_i g_1^{-1} meet, so a failing tuple
    exists iff one with g_1 = e (index 0) does, and that one sorts first.
    """
    n = group.order
    k = len(subsets)
    first = subsets[0].bits
    if k == 1:
        # Right translation is a bijection, so every X_1 g is empty or none is.
        return None if first else (0,)
    if k == 2:
        second = subsets[1]
        for g2 in range(n):
            if not first & _translate_bits(group, second, g2, left=False):
                return (0, g2)
        return None
    tables = [
        [_translate_bits(group, s, g, left=False) for g in range(n)] for s in subsets[1:]
    ]

    def descend(level: int, acc: int, prefix: tuple[int, ...]):
        table = tables[level - 1]
        last = level == k - 1
        for g in range(n):
            cur = acc & table[g]
            if not cur:
                # every completion of this prefix fails; the lexicographic
                # first one pads with identity indices
                return prefix + (g,) + (0,) * (k - 1 - level)
            if not last:
                hit = descend(level + 1, cur, prefix + (g,))
                if hit is not None:
                    return hit
        return None

    return descend(1, first, (0,))


@dataclass
class IntersectingFamily:
    """The k random subsets plus their construction and verification evidence."""

    group: FiniteGroup
    k: int
    subsets: list[GroupSubset]
    probability: float
    size_cap: float
    seed: int
    attempts_used: int
    verification: VerificationRecord
    target_size: int | None = None

    @property
    def sizes(self) -> list[int]:
        return [s.size for s in self.subsets]

    def union(self) -> GroupSubset:
        out = GroupSubset.empty(self.group)
        for s in self.subsets:
            out = out | s
        return out

    def document(self) -> dict:
        return {
            "kind": "intersecting-family",
            "group": self.group.describe(),
            "k": self.k,
            "p": self.probability,
            "seed": self.seed,
            "attempts": self.attempts_used,
            "sizes": self.sizes,
            "target_size": self.target_size,
            "subsets": [s.indices() for s in self.subsets],
            "verification": self.verification.document(),
        }


def _enlarge_to(subset: GroupSubset, l: int) -> GroupSubset:
    """Add smallest-index non-members until the set has exactly l elements."""
    bits = subset.bits
    comp = ~bits & ((1 << subset.group.order) - 1)
    need = l - subset.size
    if need < 0:
        raise SoundnessError("accepted member exceeds the requested target size")
    for _ in range(need):
        low = comp & -comp
        bits |= low
        comp ^= low
    return GroupSubset(subset.group, bits, l)


def construct_intersecting_family(
    group: FiniteGroup,
    k: int,
    *,
    seed: int,
    target_size: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
    trials: int = DEFAULT_SAMPLE_TRIALS,
) -> IntersectingFamily:
    """Draw k independent p-random subsets until a draw verifies.

    A draw is rejected when any member exceeds the 2pn size cap or when
    verification finds an empty translate intersection.  On success the
    members are optionally enlarged to exactly `target_size` by adding
    smallest-index non-members, which keeps the intersection property
    (adding elements can only grow every intersection).
    """
    n = group.order
    p = sample_probability(n, k)
    cap = 2.0 * p * n
    if target_size is not None:
        if not cap < target_size <= n:
            raise FeasibilityError(
                f"target size {target_size} outside the admissible range "
                f"({cap:.6g}, {n}]"
            )
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    history: list[dict] = []
    for attempt in range(max_attempts):
        rng = random.Random(derive_seed(seed, attempt))
        subsets = [random_subset(group, p, rng) for _ in range(k)]
        sizes = [s.size for s in subsets]
        if any(s > cap for s in sizes):
            history.append({"attempt": attempt, "sizes": sizes, "reason": "size-cap"})
            continue
        record = verify_intersecting(
            group,
            subsets,
            mode,
            trials=trials,
            seed=derive_seed(seed, attempt, _VERIFY_SALT),
        )
        if not record.result:
            history.append(
                {
                    "attempt": attempt,
                    "sizes": sizes,
                    "reason": "empty-intersection",
                    "witness": record.witness,
                }
            )
            continue
        if target_size is not None:
            subsets = [_enlarge_to(s, target_size) for s in subsets]
        return IntersectingFamily(
            group=group,
            k=k,
            subsets=subsets,
            probability=p,
            size_cap=cap,
            seed=seed,
            attempts_used=attempt + 1,
            verification=record,
            target_size=target_size,
        )
    raise ConstructionError(
        f"no accepted draw for {group.describe()} (k={k}) in {max_attempts} attempts",
        attempts=max_attempts,
        history=history,
    )


@dataclass
class CoveringCertificate:
    """A k-covering subset as the union of a verified intersecting family."""

    group: FiniteGroup
    k: int
    covering_set: GroupSubset
    family: IntersectingFamily
    seed: int

    @property
    def size_bound(self) -> float:
        return self.group.order / 2.0

    def document(self) -> dict:
        return {
            "kind": "k-covering",
            "group": self.group.describe(),
            "k": self.k,
            "p": self.family.probability,
            "seed": self.seed,
            "attempts": self.family.attempts_used,
            "sizes": self.family.sizes,
            "size": self.covering_set.size,
            "size_bound": self.size_bound,
            "elements": self.covering_set.indices(),
            "verification": self.family.verification.document(),
        }


def construct_k_covering(
    group: FiniteGroup,
    k: int,
    *,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
    trials: int = DEFAULT_SAMPLE_TRIALS,
) -> CoveringCertificate:
    """Build a k-covering subset of size at most n/2 as a family union.

    Requires (4k)^k (k log n + log 2) < n; under that hypothesis the 2pn
    member cap is strictly below n/(2k), so the union of the k accepted
    members stays within n/2.
    """
    n = group.order
    if k < 1:
        raise FeasibilityError(f"covering parameter must be >= 1, got {k}")
    lhs = covering_condition_value(n, k)
    if not lhs < n:
        raise FeasibilityError(
            f"covering condition fails for {group.describe()} at k={k}: "
            f"(4k)^k (k log n + log 2) = {lhs:.6g} >= n = {n}"
        )
    family = construct_intersecting_family(
        group,
        k,
        seed=seed,
        max_attempts=max_attempts,
        mode=mode,
        trials=trials,
    )
    union = family.union()
    per_member_cap = n / (2.0 * k)
    if any(s > per_member_cap for s in family.sizes) or union.size > n / 2.0:
        raise SoundnessError(
            f"accepted member sizes {family.sizes} break the n/2k cap at n={n}, k={k}"
        )
    return CoveringCertificate(group=group, k=k, covering_set=union, family=family, seed=seed)


def _exhaustive_covering_witness(
    group: FiniteGroup, x: GroupSubset, k: int
) -> tuple[int, ...] | None:
    """Lexicographically first untranslatable sorted Y, scanning only Y containing e.

    Y translates into X iff y_1^{-1} Y does, so an untranslatable Y exists
    iff one containing e (index 0) does, and that one sorts first.  Y =
    {e} + rest translates iff X meets every X y^{-1} with y in rest; each
    such translate is computed when the scan first reaches y, then kept.
    """
    n = group.order
    bits = x.bits
    translates: dict[int, int] = {}
    for rest in combinations(range(1, n), k - 1):
        acc = bits
        for y in rest:
            t = translates.get(y)
            if t is None:
                t = translates[y] = _translate_bits(group, x, group.inv(y), left=False)
            acc &= t
            if not acc:
                break
        if not acc:
            return (0,) + rest
    return None


def _quotient_bits(group: FiniteGroup, x: GroupSubset) -> int:
    """Bitmask of the quotient set {a^{-1} b : a, b in X}, the union of the a^{-1} X.

    Stops early once the union is the whole group.
    """
    full = (1 << group.order) - 1
    bits = 0
    for a in x:
        bits |= _translate_bits(group, x, group.inv(a), left=True)
        if bits == full:
            break
    return bits


def difference_product_full(group: FiniteGroup, x: GroupSubset) -> bool:
    """True iff the quotient set {a^{-1} b : a, b in X} is the whole group.

    For an abelian carrier this is the literal difference-set criterion
    X - X = G; left translation gY <= X for all pairs Y is equivalent to it.
    """
    n = group.order
    if n > _PAIRWISE_PRODUCT_LIMIT:
        raise BudgetExceededError(
            f"difference-product scan limited to order <= {_PAIRWISE_PRODUCT_LIMIT}, got {n}"
        )
    return _quotient_bits(group, x) == (1 << n) - 1


def _missing_difference_witness(group: FiniteGroup, x: GroupSubset) -> tuple[int, int] | None:
    """Smallest untranslatable pair {0, d}: d is the least missing quotient."""
    # the identity quotient is irrelevant: pairs have distinct entries
    missing = ~_quotient_bits(group, x) & ((1 << group.order) - 1) & ~1
    if missing == 0:
        return None
    return (0, lowest_set_bit(missing))


def verify_k_covering(
    group: FiniteGroup,
    x: GroupSubset,
    k: int,
    mode: str = "auto",
    *,
    trials: int = DEFAULT_SAMPLE_TRIALS,
    seed: int = 0,
) -> VerificationRecord:
    """Check that every size-k subset Y admits g with g*Y inside X.

    Y translates into X iff y_1^{-1} Y does, so exhaustive mode scans only
    the C(n-1,k-1) subsets containing e.  An untranslatable Y exists iff one
    containing e (index 0) does, and that one sorts first, so failure still
    reports the lexicographically first untranslatable Y over all C(n,k).
    The budget still counts C(n,k)*n steps; when that is exceeded at k = 2
    the complete O(n^2) quotient-set criterion is used instead.  Sampled
    mode checks `trials` uniform Y drawn from the given seed, each
    normalised the same way, and reports Y as drawn; a trial stops at the
    first element common to X and the X y^{-1} y_1 (see subsets.translates_meet).
    """
    n = group.order
    if k < 1:
        raise ValueError(f"covering parameter must be >= 1, got {k}")
    if k > n:
        # no size-k subsets exist, so any X (even empty) covers vacuously;
        # an unknown mode is still refused, as it is for every other k
        _resolve_mode(mode, True)
        return VerificationRecord(mode="exhaustive", result=True, method="vacuous")
    exhaustive_steps = n * math.comb(n, k)
    scan_in_budget = exhaustive_steps <= step_budget()
    pairwise_available = k == 2 and n <= _PAIRWISE_PRODUCT_LIMIT
    if _resolve_mode(mode, scan_in_budget or pairwise_available) == "exhaustive":
        if scan_in_budget:
            witness = _exhaustive_covering_witness(group, x, k)
            return VerificationRecord(
                mode="exhaustive", result=witness is None, witness=witness, method="subset-scan"
            )
        if pairwise_available:
            witness = _missing_difference_witness(group, x)
            return VerificationRecord(
                mode="exhaustive",
                result=witness is None,
                witness=witness,
                method="difference-set",
            )
        raise BudgetExceededError(
            f"exhaustive covering check needs C(n,k)*n = {exhaustive_steps} steps "
            f"(budget {step_budget()}); use sampled mode"
        )
    rng = random.Random(seed)
    meets = translates_meet(group, x, [x] * (k - 1))
    for t in range(trials):
        ys = sorted(rng.sample(range(n), k))
        if not meets([group.mul(group.inv(y), ys[0]) for y in ys[1:]]):
            return VerificationRecord(
                mode="sampled",
                result=False,
                trials=t + 1,
                witness=tuple(ys),
                method="subset-sample",
            )
    return VerificationRecord(mode="sampled", result=True, trials=trials, method="subset-sample")


EXACT_COVERING_ORDER_LIMIT = 16


def exact_covering_number(group: FiniteGroup, k: int) -> int:
    """Minimum size of a k-covering subset, by size-incremental search.

    Two proofs shrink the search, so every value is that of the full search.
    Counting: choosing g with gY inside X for each k-subset Y, the map
    Y -> (g, gY) is injective into G x (k-subsets of X), so a k-covering X
    of size s has n*C(s,k) >= C(n,k); sizes start at the least such s.
    Anchoring: every left translate of a k-covering set is k-covering, and
    one of them contains e, so only the C(n-1,s-1) candidates containing e
    (index 0) are tried, the first entries of the lexicographic order on
    all C(n,s).  When k > n, C(n,k) = 0, the bound is s = 0, and the empty
    set, the one candidate of that size, covers vacuously.

    Each candidate gets verify_k_covering's exhaustive check; its subset
    scan examines only the C(n-1,k-1) subsets containing e and translates
    the candidate by y^{-1} only when the scan first reaches y, so a
    candidate that fails early costs a few translates.  The scan's budget
    still counts C(n,k)*n.  No isomorphism reduction (pointless at n <= 16).
    """
    n = group.order
    if n > EXACT_COVERING_ORDER_LIMIT:
        raise BudgetExceededError(
            f"exact covering search limited to order <= {EXACT_COVERING_ORDER_LIMIT}, got {n}"
        )
    if k < 1:
        raise ValueError(f"covering parameter must be >= 1, got {k}")
    subsets_to_cover = math.comb(n, k)
    first = next(s for s in range(n + 1) if n * math.comb(s, k) >= subsets_to_cover)
    for s in range(first, n + 1):
        if s == 0:
            anchored = [()]  # reached only when k > n: the empty set
        else:
            anchored = ((0,) + rest for rest in combinations(range(1, n), s - 1))
        for members in anchored:
            candidate = GroupSubset.from_indices(group, members)
            if verify_k_covering(group, candidate, k, mode="exhaustive").result:
                return s
    raise SoundnessError(f"no covering subset found in {group.describe()} at k={k}")


def covering_number_bounds(n: int, k: int) -> tuple[float, float]:
    """(n^(1-1/k), min(n, 2k (k log n + log 2)^(1/k) n^(1-1/k))).

    The upper bound is clamped at n because the whole group always covers.
    """
    if n < 3:
        raise FeasibilityError(f"group order must be >= 3, got {n}")
    if k < 1:
        raise FeasibilityError(f"covering parameter must be >= 1, got {k}")
    lower = n ** (1.0 - 1.0 / k)
    upper = 2.0 * k * (k * math.log(n) + math.log(2)) ** (1.0 / k) * n ** (1.0 - 1.0 / k)
    return lower, min(float(n), upper)


@dataclass
class GreedyShrinkResult:
    """Trajectory of the translate-intersection shrinking walk."""

    elements: tuple[int, ...]
    sizes: list[int]  # sizes[0] = |X|, sizes[j] after intersecting with X g_{j+1}

    @property
    def final_size(self) -> int:
        return self.sizes[-1]


def greedy_shrink_intersection(group: FiniteGroup, x: GroupSubset, k: int) -> GreedyShrinkResult:
    """Pick g_1 = e, then each g_j minimizing the running intersection.

    Averaging over g gives |current| * |X| / n, so the greedy minimum obeys
    |next| <= floor(|current| * |X| / n) at every step; with |X| < n^(1-1/k)
    the final intersection is empty.  Ties break to the smallest index.
    """
    n = group.order
    if n > _PAIRWISE_PRODUCT_LIMIT:
        raise BudgetExceededError(
            f"greedy shrink limited to order <= {_PAIRWISE_PRODUCT_LIMIT}, got {n}"
        )
    if k < 1:
        raise ValueError(f"intersection length must be >= 1, got {k}")
    chosen = [group.identity]
    current = x.bits
    sizes = [x.size]
    for _ in range(k - 1):
        best_g = 0
        best_bits = current & x.bits  # g = 0 keeps X in place
        best_count = best_bits.bit_count()
        for g in range(1, n):
            cand = current & _translate_bits(group, x, g, left=False)
            c = cand.bit_count()
            if c < best_count:
                best_g, best_bits, best_count = g, cand, c
                if c == 0:
                    break
        chosen.append(best_g)
        current = best_bits
        sizes.append(best_count)
    return GreedyShrinkResult(elements=tuple(chosen), sizes=sizes)
