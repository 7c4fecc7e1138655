"""Randomized intersecting families and k-covering subsets of finite groups.

The constructions draw Bernoulli(p) random subsets, reject draws whose
members exceed the 2pn size cap or fail verification, and emit certificates
recording the seed, the attempt count and the verification mode.  Exhaustive
verification never silently downgrades: above the step budget the caller
gets sampled mode and the certificate says so.  Both exhaustive verifiers
prove k = 1 and k >= 3 by one prefix scan, and k = 2 by one quotient set.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, filterfalse, islice

from .errors import BudgetExceededError, ConstructionError, FeasibilityError, SoundnessError
from .groups import FiniteGroup
from .subsets import GroupSubset, _translate_bits, first_disjoint_tuple, random_subset
from .util import derive_seed, iter_set_bits, lowest_set_bit, step_budget, uniform_draws

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

    mode: str  # "exhaustive" | "sampled"
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


def parse_mode(mode: str) -> tuple[str, int]:
    """(kind, trials) of a mode token: auto, exhaustive, sampled or sampled:<m>, m >= 1.

    The one reader of a mode.  trials is the count a sampled run takes:
    DEFAULT_SAMPLE_TRIALS unless the token names m.
    """
    if mode in ("auto", "exhaustive", "sampled"):
        return mode, DEFAULT_SAMPLE_TRIALS
    if isinstance(mode, str) and mode.startswith("sampled:"):
        raw = mode[len("sampled:") :]
        try:
            trials = int(raw)
        except ValueError as exc:
            raise ValueError(f"bad sampled trial count {raw!r} in mode {mode!r}") from exc
        if trials < 1:
            raise ValueError(f"sampled trial count must be >= 1, got {trials} in mode {mode!r}")
        return "sampled", trials
    raise ValueError(f"unknown verification mode {mode!r}")


def _resolve_mode(kind: str, fits: bool, need: Callable[[], str]) -> str:
    """The kind a verifier runs: auto is exhaustive iff a complete check fits the budget.

    The one over-budget refusal: an exhaustive check that does not fit
    raises BudgetExceededError, naming the steps need() says it takes
    (formatted only then, since a count such as C(n,k)*n can be huge).
    """
    if kind == "auto":
        return "exhaustive" if fits else "sampled"
    if kind == "exhaustive" and not fits:
        raise BudgetExceededError(
            f"exhaustive {need()} steps (budget {step_budget()}); use sampled mode"
        )
    return kind


def verify_intersecting(
    group: FiniteGroup,
    subsets: list[GroupSubset],
    mode: str = "auto",
    *,
    seed: int = 0,
) -> VerificationRecord:
    """Check that every tuple of right translates X_1 g_1, ..., X_k g_k meets.

    The X_i g_i meet iff the X_i g_i g_1^{-1} meet, so exhaustive mode scans
    only the n^(k-1) tuples with g_1 = e.  A failing tuple exists iff one
    with leading index 0 does, and that one sorts first, so the witness is
    still the lexicographically first empty tuple over all n^k.  At k = 1
    and k >= 3 _first_empty_meet scans one table of n translates X_i g per
    later member.  At k = 2 the scan over g_2 is one quotient set: X_1 meets
    X_2 g exactly when g is in X_2^{-1} X_1, so the tuple (e, g) fails
    exactly for the g outside it, and building it from |X_2| translates of
    X_1 still proves every tuple.  The budget counts n^k steps, and the
    method is "tuple-scan".  Sampled mode checks as many uniform tuples as
    the mode names (see parse_mode), drawn from the given seed, k
    consecutive util.uniform_draws values each (the values randrange would
    give, generated in bulk), and reports the tuple as drawn.  The tuples
    stream, never all held at once, into one subsets.first_disjoint_tuple
    scan, which stops each trial at its first common element.
    """
    kind, trials = parse_mode(mode)
    k = len(subsets)
    if k < 1:
        raise ValueError("family must contain at least one subset")
    n = group.order
    for s in subsets:
        s._require_same_carrier(group)
    kind = _resolve_mode(kind, n**k <= step_budget(), lambda: f"verification needs n^k = {n**k}")
    if kind == "exhaustive":
        if k == 2:
            witness = _quotient_witness(group, subsets[1], subsets[0], 0)
        else:
            tables = [[_translate_bits(group, s, g) for g in range(n)] for s in subsets[1:]]
            witness = _first_empty_meet(subsets[0].bits, tables, ascending=False)
        return VerificationRecord(
            mode="exhaustive", result=witness is None, witness=witness, method="tuple-scan"
        )
    draws = uniform_draws(seed, n)
    miss = first_disjoint_tuple(
        group, subsets[0], subsets[1:], islice(zip(*[draws] * k), trials)
    )
    return _sampled_record(miss, trials, "tuple-sample")


def _sampled_record(miss: tuple | None, trials: int, method: str) -> VerificationRecord:
    """A sampled record from first_disjoint_tuple's first miss (trial, tuple), or a pass."""
    if miss is None:
        return VerificationRecord(mode="sampled", result=True, trials=trials, method=method)
    t, witness = miss
    return VerificationRecord(
        mode="sampled", result=False, trials=t + 1, witness=witness, method=method
    )


def _first_empty_meet(
    first: int, tables: list[list[int]], ascending: bool
) -> tuple[int, ...] | None:
    """Lexicographically first (0, g_2, ..., g_k) with an empty meet, or None.

    The meet is first & tables[0][g_2] & ... & tables[k-2][g_k], with k - 1
    = len(tables); when ascending, only 0 < g_2 < ... < g_k are scanned, and
    level j stops early enough to leave room for the entries after it.  The
    scan ANDs one table entry per level into the meet of its prefix and
    prunes at the first empty one: every completion of that prefix fails,
    so the witness is its least completion, padded with zeros, or with
    g + 1, g + 2, ... when ascending.  At k = 1 the one tuple is (0,): a
    right translate of the set `first` is empty exactly when the set is.
    """
    k = len(tables) + 1
    if k == 1:
        return None if first else (0,)
    n = len(tables[0])

    def span(lo: int, after: int):  # a level's candidates, `after` entries still to follow
        return iter(range(lo, n - after) if ascending else range(n))

    # (index, its meet, the next index's candidates) per prefix entry; no recursion: k can be n
    stack = [(0, first, span(1, k - 2))]
    while stack:
        _, acc, candidates = stack[-1]
        table, after = tables[len(stack) - 1], k - 1 - len(stack)
        for g in candidates:
            cur = acc & table[g]
            if not cur:
                pad = range(g + 1, g + 1 + after) if ascending else (0,) * after
                return (*(entry[0] for entry in stack), g, *pad)
            if after:  # go one level down; this level resumes after g once that one ends
                stack.append((g, cur, span(g + 1, after - 1)))
                break
        else:
            stack.pop()
    return None


@dataclass
class IntersectingFamily:
    """k random subsets with the record of verify_intersecting, which accepted them."""

    group: FiniteGroup
    subsets: list[GroupSubset]
    seed: int
    attempts_used: int
    verification: VerificationRecord
    target_size: int | None = None

    @property
    def sizes(self) -> list[int]:
        return [s.size for s in self.subsets]

    def document(self) -> dict:
        fields = {"target_size": self.target_size, "subsets": [list(s) for s in self.subsets]}
        return _draw_document(self, "intersecting-family", self.group, fields)


@dataclass
class CoveringCertificate:
    """A k-covering set, the union of k random members, with the record of its own check.

    verification is verify_k_covering's record on covering_set, the check
    that accepted the draw; sizes are the members' sizes, so k is len(sizes).
    """

    covering_set: GroupSubset
    sizes: list[int]
    seed: int
    attempts_used: int
    verification: VerificationRecord

    def document(self) -> dict:
        x = self.covering_set
        fields = {"size": x.size, "size_bound": x.group.order / 2.0, "elements": list(x)}
        return _draw_document(self, "k-covering", x.group, fields)


def _draw_document(made, kind: str, group: FiniteGroup, fields: dict) -> dict:
    """The document of a construction made: its draw, then fields, then its record."""
    return {
        "kind": kind,
        "group": group.name,
        "k": len(made.sizes),
        "p": sample_probability(group.order, len(made.sizes)),
        "seed": made.seed,
        "attempts": made.attempts_used,
        "sizes": made.sizes,
        **fields,
        "verification": made.verification.document(),
    }


def _enlarge_to(subset: GroupSubset, l: int) -> GroupSubset:
    """Add the smallest-index non-members until the set has exactly l elements.

    The need = l - |X| of them are the complement's bits up to its need-th
    set bit, so one OR adds them all.
    """
    need = l - subset.size
    if need < 0:
        raise SoundnessError("accepted member exceeds the requested target size")
    if need == 0:
        return subset
    bits = subset.bits
    comp = ~bits & ((1 << subset.group.order) - 1)
    last = next(islice(iter_set_bits(comp), need - 1, None))
    return GroupSubset(subset.group, bits | comp & ((2 << last) - 1))


def _union(group: FiniteGroup, subsets: list[GroupSubset]) -> GroupSubset:
    return GroupSubset(group, functools.reduce(operator.or_, (s.bits for s in subsets)))


def _accepted_draw(
    group: FiniteGroup, k: int, seed: int, max_attempts: int, check: Callable
) -> tuple[list[GroupSubset], VerificationRecord, int]:
    """(members, record, attempts) of the first draw within the 2pn cap that passes check.

    The one attempt loop of both constructions: attempt a draws k p-random
    subsets from derive_seed(seed, a) and checks them with the seed
    derive_seed(seed, a, _VERIFY_SALT).  ConstructionError lists every reject.
    """
    n = group.order
    p, cap = sample_probability(n, k), member_size_cap(n, k)
    history: list[dict] = []
    for attempt in range(max_attempts):
        rng = random.Random(derive_seed(seed, attempt))
        subsets = [random_subset(group, p, rng) for _ in range(k)]
        sizes = [s.size for s in subsets]
        if any(s > cap for s in sizes):
            history.append({"attempt": attempt, "sizes": sizes, "reason": "size-cap"})
            continue
        record = check(subsets, derive_seed(seed, attempt, _VERIFY_SALT))
        if record.result:
            return subsets, record, attempt + 1
        reason = {"reason": "empty-intersection", "witness": record.witness}
        history.append({"attempt": attempt, "sizes": sizes, **reason})
    raise ConstructionError(
        f"no accepted draw for {group.name} (k={k}) in {max_attempts} attempts",
        attempts=max_attempts,
        history=history,
    )


def construct_intersecting_family(
    group: FiniteGroup,
    k: int,
    *,
    seed: int,
    target_size: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
) -> IntersectingFamily:
    """Draw k independent p-random subsets until a draw verifies.

    A draw is rejected when any member exceeds the 2pn size cap or when
    verify_intersecting finds an empty translate intersection (see
    _accepted_draw).  On success the members are optionally enlarged to
    exactly `target_size` by adding smallest-index non-members, which keeps
    the intersection property (adding elements can only grow every
    intersection).
    """
    parse_mode(mode)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    n = group.order
    cap = member_size_cap(n, k)
    if target_size is not None and not cap < target_size <= n:
        raise FeasibilityError(
            f"target size {target_size} outside the admissible range ({cap:.6g}, {n}]"
        )
    subsets, record, attempts = _accepted_draw(
        group, k, seed, max_attempts, lambda xs, s: verify_intersecting(group, xs, mode, seed=s)
    )
    if target_size is not None:
        subsets = [_enlarge_to(s, target_size) for s in subsets]
    return IntersectingFamily(group, subsets, seed, attempts, record, target_size)


def construct_k_covering(
    group: FiniteGroup,
    k: int,
    *,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    mode: str = "auto",
) -> CoveringCertificate:
    """Build a k-covering subset of size at most n/2 as the union of k random members.

    A draw is accepted when its union passes verify_k_covering, the claim
    the certificate records (see _accepted_draw).  The paper's route sets
    the parameters: when (4k)^k (k log n + log 2) < n, an intersecting
    family of such members has a k-covering union, and the 2pn member cap
    is strictly below n/(2k), so the union of the k members stays within n/2.
    """
    parse_mode(mode)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    n = group.order
    if k < 1:
        raise FeasibilityError(f"covering parameter must be >= 1, got {k}")
    lhs = covering_condition_value(n, k)
    if not lhs < n:
        raise FeasibilityError(
            f"covering condition fails for {group.name} at k={k}: "
            f"(4k)^k (k log n + log 2) = {lhs:.6g} >= n = {n}"
        )
    subsets, record, attempts = _accepted_draw(
        group, k, seed, max_attempts,
        lambda xs, s: verify_k_covering(group, _union(group, xs), k, mode, seed=s),
    )
    union, sizes = _union(group, subsets), [s.size for s in subsets]
    if any(s > n / (2.0 * k) for s in sizes) or union.size > n / 2.0:
        raise SoundnessError(f"accepted member sizes {sizes} break the n/2k cap at n={n}, k={k}")
    return CoveringCertificate(union, sizes, seed, attempts, record)


def _quotient_witness(
    group: FiniteGroup, x: GroupSubset, y: GroupSubset, start: int
) -> tuple[int, int] | None:
    """(0, g) for the least g >= start outside the quotient set X^{-1} Y, or None.

    X^{-1} Y = {a^{-1} b : a in X, b in Y} is the union of the left
    translates a^{-1} Y over a in X: |X| translates of Y, stopping once the
    union is the whole group.  The k = 2 tuple scan takes X = X_2, Y = X_1
    and start 0: X_1 meets X_2 g exactly when g is in X_2^{-1} X_1.  The
    difference-set criterion, the one exhaustive k = 2 covering check,
    takes X = Y and start 1: pairs {0, d} have distinct entries.

    Rotation carriers OR each translate a^{-1} Y = Y a^{-1}, one bitmask
    rotation, into an n-bit int.  Every other carrier adds each left
    translate a^{-1} Y, as the indices group.left_products gives, to one
    set of at most n ints: a bitmask translate there builds a fresh n-bit
    mask per translate, and on S_m the batched oracle computes a whole
    translate in C.  The union is
    the whole group once the set holds n elements; otherwise the witness is
    the least index >= start missing from it.
    """
    n = group.order
    if group.additive_rotation:
        full = (1 << n) - 1
        bits = 0
        for a in x:
            bits |= _translate_bits(group, y, group.inv(a))
            if bits == full:
                return None
        missing = (~bits & full) >> start
        return None if missing == 0 else (0, start + lowest_set_bit(missing))
    products, inv = group.left_products(y._member_list()), group.inv
    seen: set[int] = set()
    for a in x:
        seen.update(products(inv(a)))
        if len(seen) == n:
            return None
    g = next(filterfalse(seen.__contains__, range(start, n)), None)
    return None if g is None else (0, g)


def verify_k_covering(
    group: FiniteGroup,
    x: GroupSubset,
    k: int,
    mode: str = "auto",
    *,
    seed: int = 0,
) -> VerificationRecord:
    """Check that every size-k subset Y admits g with g*Y inside X.

    Y translates into X iff y_1^{-1} Y does, so exhaustive mode scans only
    the C(n-1,k-1) subsets containing e.  An untranslatable Y exists iff one
    containing e (index 0) does, and that one sorts first, so failure still
    reports the lexicographically first untranslatable Y over all C(n,k).
    At k = 1 and k >= 3, {e} + rest translates iff X meets every X y^{-1},
    y in rest: _first_empty_meet scans a table of all n of them, at ascending
    y.  The budget counts the fewer of C(n,k)*n steps and the n^k that
    verify_intersecting counts for the k-fold family, so a cover is proven
    wherever its family would be; the k = 1 scan reads no table and always
    fits.  At k = 2 the proof is the quotient set: {0, d} translates into X
    iff d is in X^{-1} X, and it fits any budget up to _PAIRWISE_PRODUCT_LIMIT.

    Sampled mode is verify_intersecting's scan of the k-fold family (X, ...,
    X): g Y lies in X iff g is in every X y^{-1}, so X g_1, ..., X g_k meet
    iff Y = {g_1^{-1}, ..., g_k^{-1}} translates into X.  A failing tuple of
    translators is reported as its Y, sorted and without repeats; a Y with
    fewer than k elements still lies in an untranslatable size-k set.
    """
    kind, trials = parse_mode(mode)
    n = group.order
    if k < 1:
        raise ValueError(f"covering parameter must be >= 1, got {k}")
    x._require_same_carrier(group)
    if k > n:  # no size-k subsets exist, so any X (even empty) covers vacuously
        return VerificationRecord(mode="exhaustive", result=True, method="vacuous")
    steps = min(n**k, n * math.comb(n, k))
    fits = k == 1 or steps <= step_budget() or (k == 2 and n <= _PAIRWISE_PRODUCT_LIMIT)
    kind = _resolve_mode(kind, fits, lambda: f"covering check needs {steps}")
    if kind == "exhaustive":
        if k == 2:
            witness, method = _quotient_witness(group, x, x, 1), "difference-set"
        else:
            table = [_translate_bits(group, x, group.inv(y)) for y in range(n if k > 1 else 0)]
            witness = _first_empty_meet(x.bits, [table] * (k - 1), ascending=True)
            method = "subset-scan"
        return VerificationRecord(
            mode="exhaustive", result=witness is None, witness=witness, method=method
        )
    draws = uniform_draws(seed, n)
    miss = first_disjoint_tuple(group, x, [x] * (k - 1), islice(zip(*[draws] * k), trials))
    if miss is not None:
        t, gs = miss
        miss = t, tuple(sorted({group.inv(g) for g in gs}))
    return _sampled_record(miss, trials, "subset-sample")


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

    At k >= 2 the search tabulates columns[y][x] = 1 << (x y^{-1}) once,
    n^2 mul calls at n <= 16, and _anchored_candidate_covers decides each
    candidate from it by the subset scan, with no oracle call, GroupSubset
    or VerificationRecord per candidate.  The first candidate it accepts
    is re-proven by verify_k_covering's exhaustive check, the library's one
    k-covering verifier, and a refutation raises SoundnessError.  The table
    is dropped when the search ends.  No isomorphism reduction (pointless
    at n <= 16).
    """
    n = group.order
    if n > EXACT_COVERING_ORDER_LIMIT:
        raise BudgetExceededError(
            f"exact covering search limited to order <= {EXACT_COVERING_ORDER_LIMIT}, got {n}"
        )
    if k < 1:
        raise ValueError(f"covering parameter must be >= 1, got {k}")
    mul = group.mul
    columns = []  # at k = 1 the scan's one rest is empty and reads no column
    for y in range(n if k >= 2 else 0):
        y_inv = group.inv(y)
        columns.append([1 << mul(x, y_inv) for x in range(n)])
    subsets_to_cover = math.comb(n, k)
    first = next(s for s in range(n + 1) if n * math.comb(s, k) >= subsets_to_cover)
    for s in range(first, n + 1):
        if s == 0:
            anchored = [()]  # reached only when k > n: the empty set
        else:
            anchored = ((0,) + rest for rest in combinations(range(1, n), s - 1))
        for members in anchored:
            if _anchored_candidate_covers(columns, members, k):
                winner = GroupSubset.from_indices(group, members)
                if not verify_k_covering(group, winner, k, mode="exhaustive").result:
                    raise SoundnessError(
                        f"exact search accepted {list(members)} in {group.name} "
                        f"at k={k}, but verify_k_covering refutes it"
                    )
                return s
    raise SoundnessError(f"no covering subset found in {group.name} at k={k}")


def _anchored_candidate_covers(
    columns: list[list[int]], members: tuple[int, ...], k: int
) -> bool:
    """True iff X = members is k-covering, by the subset scan on a column table.

    columns[y][x] is 1 << (x y^{-1}), so the right translate X y^{-1} is the
    OR of columns[y][x] over x in X; at k = 1 no column is read, and the
    table may be empty.  As in verify_k_covering, Y = {e} + rest
    translates iff X meets every X y^{-1} with y in rest, and only Y
    containing e need be scanned.  Each translate is built when
    the scan first reaches y and kept for this candidate only.  It is kept
    apart from that verifier's prefix scan, which translates one set by
    each shift once; the search translates thousands of sets by the same
    n - 1 shifts, so it tabulates the shifts once instead.
    """
    bits = 0
    for x in members:
        bits |= 1 << x
    translates = [0] * len(columns)  # 0 until built; a non-empty X has no empty translate
    for rest in combinations(range(1, len(columns)), k - 1):
        acc = bits
        for y in rest:
            t = translates[y]
            if not t:
                column = columns[y]
                t = 0
                for x in members:
                    t |= column[x]
                translates[y] = t
            acc &= t
            if not acc:
                break
        if not acc:
            return False
    return True


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
            cand = current & _translate_bits(group, x, g)
            c = cand.bit_count()
            if c < best_count:
                best_g, best_bits, best_count = g, cand, c
                if c == 0:
                    break
        chosen.append(best_g)
        current = best_bits
        sizes.append(best_count)
    return GreedyShrinkResult(elements=tuple(chosen), sizes=sizes)
