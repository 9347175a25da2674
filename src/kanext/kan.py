"""Pointwise minimal and maximal extensions of monotones along functors.

With a posetal value codomain the slice categories never need to be built:
an extension at a target object is an inf or sup of monotone values over the
candidates whose images are connected to it by a free arrow.  Which bound,
and in which direction the arrow points, depends on the variance:

    minimal, covariant:      inf  { M(X) : Y -> K(X) free },  empty -> inf
    minimal, contravariant:  sup  { M(X) : Y -> K(X) free },  empty -> 0
    maximal, covariant:      sup  { M(X) : K(X) -> Y free },  empty -> 0
    maximal, contravariant:  inf  { M(X) : K(X) -> Y free },  empty -> inf

The empty-set constants are the initial (0) and terminal (inf) objects of
the value poset.  Infinity is never summed with anything, only compared.

The four rows collapse to one boolean per side,
``takes_inf = (side is minimal) == covariant``, which fixes the aggregate
(inf or sup), the empty value (inf or 0), the side of the competitor
hypothesis in the optimality check and the direction of the universal
property (a competitor G satisfies G <= ext iff ``takes_inf``).
``extension`` computes both sides in one sweep over the candidates.

Where the target theory is ordered by majorization, admissibility needs no
image object.  Between objects of one size, uniform (doubly stochastic)
maps carry p to q iff p majorizes q (Hardy, Littlewood and Polya 1929),
and unital channels carry rho to sigma iff the spectrum of rho majorizes
that of sigma (Uhlmann 1971; Gour et al., Phys. Rep. 583, 2015,
arXiv:1309.6586).  The spectrum of diag(p) is p sorted, so the diagonal
embedding's image needs no eigendecomposition either.  An oracle's ``key``
and a functor's ``map_key`` name these vectors, and the sweep then decides
every candidate in both directions with one comparison of sorted
cumulative sums (``prob.majorization_mask``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .prob import INF, ExtValue, ext_to_json, majorization_mask
from .pcat import (
    COVARIANT,
    VALUE_SLACK,
    Decision,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
    ext_leq,
)


class EnumerationBudgetError(ValueError):
    """Brute-force competitor enumeration would exceed the budget."""


@dataclass(frozen=True)
class FunctorMap:
    """Object map of a functor between theories; free arrows map to free arrows.

    ``map_key``, where given, returns the target oracle's ``key`` of an
    object's image without building the image.
    """

    name: str
    source_theory: str
    target_theory: str
    map_object: Callable[[ResourceRef], ResourceRef]
    map_key: Callable[[ResourceRef], np.ndarray] | None = None


@dataclass(frozen=True)
class ExtensionProblem:
    """A monotone, a functor into the target theory, the target's oracle,
    and the finite candidate family the sweep ranges over.

    ``candidates_complete`` is the caller's claim that the candidates cover
    every admissible source object, making sweep results exact rather than
    one-sided bounds.
    """

    monotone: MonotoneSpec
    functor: FunctorMap
    target_oracle: ReachabilityOracle
    candidates: tuple[ResourceRef, ...]
    candidates_complete: bool = False

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True)
class ExtensionResult:
    value: ExtValue
    witness: tuple[ResourceRef, Any] | None
    examined: int
    exact: bool

    def to_json(self) -> dict:
        doc: dict = {
            "value": ext_to_json(self.value),
            "examined": self.examined,
            "exact": self.exact,
        }
        if self.witness is not None:
            doc["witness"] = self.witness[0].describe()
        return doc


# keyed decisions carry no witness and are exact; index by the verdict
_KEYED = (Decision(False), Decision(True))


def _keys(prob: ExtensionProblem, y: ResourceRef) -> tuple[np.ndarray, np.ndarray] | None:
    """y's key and the (N, n) matrix of the candidates' image keys, or None
    unless the oracle and the functor both have keys of one length n."""
    key, map_key = prob.target_oracle.key, prob.functor.map_key
    if key is None or map_key is None or not prob.candidates:
        return None
    target = key(y)
    rows = [map_key(x) for x in prob.candidates]
    if any(len(row) != len(target) for row in rows):
        return None
    return target, np.array(rows)


def _decisions(prob: ExtensionProblem, y: ResourceRef):
    """(X, (y -> K(X), K(X) -> y)) in candidate order.  The keyed sweep
    skips candidates admissible on neither side, whose exact negatives
    change no bound or flag; the fallback decides every pair."""
    keys = _keys(prob, y)
    if keys is None:
        decide = prob.target_oracle.decide
        for x in prob.candidates:
            image = prob.functor.map_object(x)
            yield x, (decide(y, image), decide(image, y))
        return
    target, rows = keys
    forward = majorization_mask(target, rows)
    backward = majorization_mask(rows, target)
    for x, f, b in zip(prob.candidates, forward.tolist(), backward.tolist()):
        if f or b:
            yield x, (_KEYED[f], _KEYED[b])


def extension(
    prob: ExtensionProblem, y: ResourceRef
) -> tuple[ExtensionResult, ExtensionResult]:
    """Minimal and maximal extension at y, in that order, from one sweep.

    The sweep decides y -> K(X) for the minimal side and K(X) -> y for the
    maximal side and computes a monotone value at most once per candidate,
    only where one side admits it.  Each side's witness is the first
    candidate that attains its bound, and its exact flag covers its own
    decisions only.

    When the target oracle has a ``key`` and the functor a ``map_key``, and
    every candidate's key has the length of y's, all decisions come from
    one sorted-cumsum comparison of y's key against the (N, n) key matrix,
    and no image is built: at equal size the order is majorization of keys
    (Hardy-Littlewood-Polya for doubly stochastic maps, Uhlmann for unital
    channels on spectra; the spectrum of diag(p) is sorted p).  Otherwise,
    as for unequal lengths and for theories without a key, each candidate
    is mapped once and the oracle decides each pair.
    """
    covariant = prob.monotone.variance == COVARIANT
    takes_inf = (covariant, not covariant)
    # (value, witness) per side, starting from the empty inf or sup
    best = [(INF if inf else 0.0, None) for inf in takes_inf]
    exact = [prob.candidates_complete] * 2
    for x, decisions in _decisions(prob, y):
        value = None
        for side, d in enumerate(decisions):
            if not d.exact:
                exact[side] = False
            if not d.reachable:
                continue
            if value is None:
                value = prob.monotone.evaluate(x)
            bound, witness = best[side]
            if witness is None or (value < bound if takes_inf[side] else value > bound):
                best[side] = (value, (x, d.witness))
    n = len(prob.candidates)
    lo, hi = (ExtensionResult(v, w, n, ok) for (v, w), ok in zip(best, exact))
    return lo, hi


def _ordered(a: ExtValue, b: ExtValue, ascending: bool, slack: float = 0.0) -> bool:
    """a <= b when ``ascending``, b <= a otherwise."""
    return ext_leq(a, b, slack) if ascending else ext_leq(b, a, slack)


@dataclass(frozen=True)
class SandwichSample:
    source: ResourceRef
    minimal: ExtValue
    value: ExtValue
    maximal: ExtValue
    ok: bool


@dataclass(frozen=True)
class SandwichReport:
    samples: tuple[SandwichSample, ...]
    passed: bool
    equalities: int

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checked": len(self.samples),
            "equalities": self.equalities,
            "violations": [
                {
                    "source": s.source.describe(),
                    "minimal": ext_to_json(s.minimal),
                    "value": ext_to_json(s.value),
                    "maximal": ext_to_json(s.maximal),
                }
                for s in self.samples
                if not s.ok
            ],
        }


def verify_reduction(
    prob: ExtensionProblem, samples: list[ResourceRef]
) -> SandwichReport:
    """Check the sandwich min-ext <= M <= max-ext on images of samples.

    Orientation flips for contravariant monotones: a side that takes an inf
    lies below M, a side that takes a sup above it.  Guaranteed whenever
    each sample appears among the candidates and the oracle is exact;
    reported honestly either way.
    """
    covariant = prob.monotone.variance == COVARIANT
    rows = []
    equalities = 0
    for x in samples:
        y = prob.functor.map_object(x)
        lo, hi = (side.value for side in extension(prob, y))
        v = prob.monotone.evaluate(x)
        ok = _ordered(lo, v, covariant, VALUE_SLACK) and _ordered(
            hi, v, not covariant, VALUE_SLACK
        )
        if ext_leq(lo, hi, VALUE_SLACK) and ext_leq(hi, lo, VALUE_SLACK):
            equalities += 1
        rows.append(SandwichSample(x, lo, v, hi, ok))
    return SandwichReport(tuple(rows), all(r.ok for r in rows), equalities)


@dataclass(frozen=True)
class MonotonicityCheck:
    lower: ResourceRef
    upper: ResourceRef
    minimal_ok: bool
    maximal_ok: bool

    @property
    def ok(self) -> bool:
        return self.minimal_ok and self.maximal_ok


@dataclass(frozen=True)
class MonotonicityReport:
    checks: tuple[MonotonicityCheck, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checked": len(self.checks),
            "violations": [
                {"from": c.lower.describe(), "to": c.upper.describe()}
                for c in self.checks
                if not c.ok
            ],
        }


def verify_monotonicity(
    prob: ExtensionProblem, target_pairs: list[tuple[ResourceRef, ResourceRef]]
) -> MonotonicityReport:
    """Extensions must respect each supplied free arrow Y -> Y'."""
    covariant = prob.monotone.variance == COVARIANT
    checks = []
    for y, y2 in target_pairs:
        if not prob.target_oracle.decide(y, y2).reachable:
            raise ValueError(
                f"pair ({y.describe()}, {y2.describe()}) is not a free arrow"
            )
        lo, hi = extension(prob, y)
        lo2, hi2 = extension(prob, y2)
        checks.append(
            MonotonicityCheck(
                y,
                y2,
                _ordered(lo.value, lo2.value, covariant, VALUE_SLACK),
                _ordered(hi.value, hi2.value, covariant, VALUE_SLACK),
            )
        )
    return MonotonicityReport(tuple(checks), all(c.ok for c in checks))


@dataclass(frozen=True)
class OptimalityReport:
    passed: bool
    competitors_minimal: int
    competitors_maximal: int
    violations: tuple[str, ...]
    minimal_values: tuple[ExtValue, ...]
    maximal_values: tuple[ExtValue, ...]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "competitors_minimal": self.competitors_minimal,
            "competitors_maximal": self.competitors_maximal,
            "violations": list(self.violations),
        }


def _enumerate_monotones(relation, grid, bounds, upper, covariant):
    """DFS over grid assignments respecting the free relation and per-object
    bounds (from above when ``upper``, from below otherwise); prunes as soon
    as a partial assignment fails."""
    n = relation.shape[0]
    values = [None] * n
    # a contravariant assignment ascends along the reversed arrows
    ascends = (relation if covariant else relation.T).tolist()

    def respects(t, g):
        b = bounds[t]
        if b is not None and not (ext_leq(g, b) if upper else ext_leq(b, g)):
            return False
        for s in range(t):
            if ascends[s][t] and not ext_leq(values[s], g):
                return False
            if ascends[t][s] and not ext_leq(g, values[s]):
                return False
        return True

    def walk(t):
        if t == n:
            yield tuple(values)
            return
        for g in grid:
            if respects(t, g):
                values[t] = g
                yield from walk(t + 1)
                values[t] = None

    yield from walk(0)


def verify_optimality_bruteforce(
    prob: ExtensionProblem,
    target_objects: list[ResourceRef],
    value_grid: tuple[ExtValue, ...],
    budget: int = 5_000_000,
) -> OptimalityReport:
    """Enumerate every competitor monotone on a finite target theory and
    confirm the universal property of both extensions.

    A competitor G assigns grid values to target objects, respects the free
    relation per the variance, and obeys the hypothesis on images of the
    candidates: G(K X) <= M(X) for a side that takes an inf, >= for a side
    that takes a sup.  Every such G must then satisfy G <= ext on an inf
    side and ext <= G on a sup side; for covariant monotones, the minimal
    extension dominates every competitor and the maximal one is dominated
    by all of them.  Comparisons are exact.
    """
    n = len(target_objects)
    if len(value_grid) ** n > budget:
        raise EnumerationBudgetError(
            f"{len(value_grid)}^{n} assignments exceed budget {budget}"
        )
    covariant = prob.monotone.variance == COVARIANT
    relation = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            relation[i, j] = prob.target_oracle.decide(
                target_objects[i], target_objects[j]
            ).reachable

    index_of = {id(ref): i for i, ref in enumerate(target_objects)}

    def locate(image: ResourceRef) -> int:
        if id(image) in index_of:
            return index_of[id(image)]
        for i, ref in enumerate(target_objects):
            if ref == image:
                return i
        raise ValueError("functor image is not among the target objects")

    images = [locate(prob.functor.map_object(x)) for x in prob.candidates]
    mvals = [prob.monotone.evaluate(x) for x in prob.candidates]

    results = [extension(prob, y) for y in target_objects]
    minimal_values = tuple(lo.value for lo, _ in results)
    maximal_values = tuple(hi.value for _, hi in results)

    # Collapse the hypothesis on images to one bound per target object.
    def image_bounds(upper: bool):
        bounds: list[ExtValue | None] = [None] * n
        for t, m in zip(images, mvals):
            if bounds[t] is None:
                bounds[t] = m
            elif upper:
                bounds[t] = min(bounds[t], m)
            else:
                bounds[t] = max(bounds[t], m)
        return bounds

    violations: list[str] = []
    counts = []
    for side, ext_values, takes_inf in (
        ("minimal", minimal_values, covariant),
        ("maximal", maximal_values, not covariant),
    ):
        count = 0
        for g in _enumerate_monotones(
            relation, value_grid, image_bounds(upper=takes_inf), takes_inf, covariant
        ):
            count += 1
            for t in range(n):
                if not _ordered(g[t], ext_values[t], takes_inf):
                    violations.append(
                        f"{side} extension beaten at object {t}: "
                        f"G={g[t]} vs {ext_values[t]}"
                    )
        counts.append(count)

    return OptimalityReport(
        passed=not violations,
        competitors_minimal=counts[0],
        competitors_maximal=counts[1],
        violations=tuple(violations),
        minimal_values=minimal_values,
        maximal_values=maximal_values,
    )
