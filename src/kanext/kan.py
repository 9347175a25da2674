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
``verify_optimality`` checks that property on a finite target theory in
closed form: on each side one extreme competitor bounds every other, so it
is the only one compared, and no competitor is enumerated.

Where the target theory is ordered by relative majorization of
dichotomies, admissibility needs no image object.  A joint stochastic map
carries a pair (p, q) to (p2, q2) iff Blackwell's hockey-stick test holds
(Blackwell 1953; Renes, J. Math. Phys. 57, 2016, arXiv:1510.03695).  A
uniform map from length n to length k is a stochastic map carrying u_n to
u_k, so it carries p to q iff (p, u_n) relatively majorizes (q, u_k) (Gour
et al., Phys. Rep. 583, 2015, arXiv:1309.6586); at equal lengths this is
majorization (Hardy, Littlewood and Polya 1929).  Unital channels between
states of one dimension carry rho to sigma iff the spectrum of rho
majorizes that of sigma (Uhlmann 1971), and the spectrum of diag(p) is p
sorted.  An oracle's ``key`` names the dichotomy (p, q) of an object and a
functor's ``map_key`` those of the candidates' images, and the sweep then
decides every candidate in both directions by the rule the keyed oracles
decide one pair by, ``pcat.Dichotomy.reaches``: one batched
``prob.relative_majorization_mask`` per direction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .prob import INF, ExtValue, ext_to_json
from .pcat import (
    COVARIANT,
    IDENTITY_TOL,
    VALUE_SLACK,
    Dichotomy,
    DistRows,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
    ext_leq,
    preorder_collapse,
)


@dataclass(frozen=True)
class FunctorMap:
    """Object map of a functor between theories; free arrows map to free arrows.

    ``map_key``, where given, maps the candidate family to the p and q of
    its images' target-oracle keys (``pcat.Dichotomy``) as (N, n) arrays,
    or q as one length-n row that every image shares, without building the
    images (views of a ``pcat.DistRows`` family's own matrices where it
    can); or to None unless those keys have one length.  Where the
    target's key names an ``identity``, the image keys are written in its
    fixed basis.
    """

    name: str
    source_theory: str
    target_theory: str
    map_object: Callable[[ResourceRef], ResourceRef]
    map_key: Callable[[Sequence[ResourceRef]], tuple[np.ndarray, np.ndarray] | None] | None = None


@dataclass(frozen=True)
class ExtensionProblem:
    """A monotone, a functor into the target theory, the target's oracle,
    and the finite candidate family the sweep ranges over: a tuple of
    objects, or a ``pcat.DistRows`` that builds an object only when one is
    indexed.

    ``candidates_complete`` is the caller's claim that the candidates cover
    every admissible source object, making sweep results exact rather than
    one-sided bounds.
    """

    monotone: MonotoneSpec
    functor: FunctorMap
    target_oracle: ReachabilityOracle
    candidates: Sequence[ResourceRef]
    candidates_complete: bool = False

    def __post_init__(self):
        if not isinstance(self.candidates, DistRows):
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


def _keys(prob: ExtensionProblem, y: ResourceRef) -> tuple[Dichotomy, Dichotomy] | None:
    """y's key and the candidates' image keys as one ``Dichotomy`` of (N, n)
    arrays, or None unless the oracle and the functor both give keys and
    the image keys have one length.  The image keys are keys of y's theory,
    so they decide across lengths where y's key does."""
    key, map_key = prob.target_oracle.key, prob.functor.map_key
    if key is None or map_key is None or not prob.candidates:
        return None
    target = key(y)
    if target is None:
        return None
    images = map_key(prob.candidates)
    if images is None:
        return None
    p, q = images
    return target, Dichotomy(p, q, across_lengths=target.across_lengths)


# (value, witness, exact) of one side of an extension
_Side = tuple[ExtValue, Any, bool]


def _keyed(prob: ExtensionProblem, keys, takes_inf) -> list[_Side]:
    """(value, witness, exact) per side from two masks: y -> K(X) admits a
    candidate on the minimal side, K(X) -> y on the maximal one.  An image
    whose key agrees with y's within IDENTITY_TOL is admitted on both with
    y's ``identity`` witness.  The monotone is evaluated once, on the
    candidates some side admits; each side takes the first admissible
    candidate that attains its bound, and is exact where y's key
    ``certifies`` its mask."""
    target, images = keys
    admits = [target.reaches(images), images.reaches(target)]
    same = np.zeros(len(images.p), bool)
    if target.identity is not None and images.p.shape[-1] == len(target.p):
        same = np.all(np.abs(images.p - target.p) <= IDENTITY_TOL, axis=-1) & np.all(
            np.abs(images.q - target.q) <= IDENTITY_TOL, axis=-1
        )
        admits = [mask | same for mask in admits]
    index = np.flatnonzero(admits[0] | admits[1])
    values = prob.monotone.values(prob.candidates, index)
    sides = []
    for mask, inf in zip(admits, takes_inf):
        exact = target.certifies(images, mask, prob.target_oracle.exact)
        side = np.flatnonzero(mask[index])
        if not side.size:
            sides.append((INF if inf else 0.0, None, exact))
            continue
        # argmin and argmax return the first position that attains the bound
        at = side[(np.argmin if inf else np.argmax)(values[side])]
        i = int(index[at])
        witness = (prob.candidates[i], target.identity if same[i] else None)
        sides.append((float(values[at]), witness, exact))
    return sides


def _per_pair(prob: ExtensionProblem, y: ResourceRef, takes_inf) -> list[_Side]:
    """(value, witness, exact) per side with each candidate mapped once and
    each pair handed to the oracle: the monotone is evaluated at most once
    per candidate, where some side admits it, and each side keeps the
    first candidate that attains its bound."""
    decide = prob.target_oracle.decide
    best = [(INF if inf else 0.0, None) for inf in takes_inf]
    exact = [True, True]
    for x in prob.candidates:
        image = prob.functor.map_object(x)
        value = None
        for side, d in enumerate((decide(y, image), decide(image, y))):
            if not d.exact:
                exact[side] = False
            if not d.reachable:
                continue
            if value is None:
                value = prob.monotone.evaluate(x)
            bound, witness = best[side]
            if witness is None or (value < bound if takes_inf[side] else value > bound):
                best[side] = (value, (x, d.witness))
    return [(v, w, ok) for (v, w), ok in zip(best, exact)]


def extension(
    prob: ExtensionProblem, y: ResourceRef
) -> tuple[ExtensionResult, ExtensionResult]:
    """Minimal and maximal extension at y, in that order, from one sweep.

    The sweep decides y -> K(X) for the minimal side and K(X) -> y for the
    maximal side and computes a monotone value at most once per candidate,
    only where one side admits it.  Each side's witness is the first
    candidate that attains its bound, even where that is the empty bound,
    and its exact flag covers its own decisions only.

    When the target oracle has a ``key`` for y and the functor a
    ``map_key`` for the candidates, and the image keys have one length, no
    image is built and no pair is handed to the oracle: all decisions come
    from two relative-majorization masks of y's dichotomy key against the
    (N, n) image keys, one per direction, by the oracle's own rule
    (``pcat.keyed_decision``), and the monotone is evaluated on the
    admissible candidates at once (``MonotoneSpec.values``).  Where y's key names an ``identity``
    witness, an image whose key agrees with y's within IDENTITY_TOL is y
    itself and takes that witness both ways.  Otherwise, as for mixed
    lengths, targets without a key and theories without keys, each
    candidate is mapped once and the oracle decides each pair.
    """
    covariant = prob.monotone.variance == COVARIANT
    takes_inf = (covariant, not covariant)
    keys = _keys(prob, y)
    sides = _per_pair(prob, y, takes_inf) if keys is None else _keyed(prob, keys, takes_inf)
    n = len(prob.candidates)
    lo, hi = (
        ExtensionResult(v, w, n, ok and prob.candidates_complete) for v, w, ok in sides
    )
    return lo, hi


def _ordered(a: ExtValue, b: ExtValue, ascending: bool, slack: float = 0.0) -> bool:
    """a <= b when ``ascending``, b <= a otherwise."""
    return ext_leq(a, b, slack) if ascending else ext_leq(b, a, slack)


def verify_reduction(prob: ExtensionProblem, samples: list[ResourceRef]) -> dict:
    """Check the sandwich min-ext <= M <= max-ext on images of samples.

    Orientation flips for contravariant monotones: a side that takes an inf
    lies below M, a side that takes a sup above it.  Guaranteed whenever
    each sample appears among the candidates and the oracle is exact;
    reported honestly either way.  Returns the verify document: ``passed``,
    ``checked``, one violation per sample outside its sandwich, and
    ``equalities``, the samples where both extensions agree.
    """
    covariant = prob.monotone.variance == COVARIANT
    violations = []
    equalities = 0
    for x in samples:
        y = prob.functor.map_object(x)
        lo, hi = (side.value for side in extension(prob, y))
        v = prob.monotone.evaluate(x)
        if not (
            _ordered(lo, v, covariant, VALUE_SLACK)
            and _ordered(hi, v, not covariant, VALUE_SLACK)
        ):
            violations.append({
                "source": x.describe(),
                "minimal": ext_to_json(lo),
                "value": ext_to_json(v),
                "maximal": ext_to_json(hi),
            })
        if ext_leq(lo, hi, VALUE_SLACK) and ext_leq(hi, lo, VALUE_SLACK):
            equalities += 1
    return {
        "passed": not violations,
        "checked": len(samples),
        "equalities": equalities,
        "violations": violations,
    }


def verify_monotonicity(
    prob: ExtensionProblem, target_pairs: list[tuple[ResourceRef, ResourceRef]]
) -> dict:
    """Extensions must respect each supplied free arrow Y -> Y'.  Returns
    the verify document, with one violation per pair that either extension
    fails to respect."""
    covariant = prob.monotone.variance == COVARIANT
    violations = []
    for y, y2 in target_pairs:
        if not prob.target_oracle.decide(y, y2).reachable:
            raise ValueError(
                f"pair ({y.describe()}, {y2.describe()}) is not a free arrow"
            )
        lo, hi = extension(prob, y)
        lo2, hi2 = extension(prob, y2)
        if not (
            _ordered(lo.value, lo2.value, covariant, VALUE_SLACK)
            and _ordered(hi.value, hi2.value, covariant, VALUE_SLACK)
        ):
            violations.append({"from": y.describe(), "to": y2.describe()})
    return {"passed": not violations, "checked": len(target_pairs), "violations": violations}


def verify_optimality(
    prob: ExtensionProblem,
    target_objects: list[ResourceRef],
    value_grid: tuple[ExtValue, ...],
) -> dict:
    """Confirm the universal property of both extensions against every
    grid-valued competitor monotone on a finite target theory.

    A competitor G assigns grid values to target objects, respects the free
    relation per the variance, and obeys the hypothesis on images of the
    candidates: G(K X) <= M(X) for a side that takes an inf, >= for a side
    that takes a sup.  Every such G must then satisfy G <= ext on an inf
    side and ext <= G on a sup side; for covariant monotones, the minimal
    extension dominates every competitor and the maximal one is dominated
    by all of them.  Comparisons are exact.

    No competitor is enumerated: each side is decided by its extreme one.
    On a side that ``takes_inf``, let ``ascends`` be the free relation
    (its transpose when contravariant), along which every competitor
    ascends, and let G*(t) be the largest grid value at or below every
    image bound M(X) with ``ascends[t, K(X)]``.  G* is monotone, because
    by transitivity an object below t sees every bound that t sees; it
    meets the bound at each image K(X), because ``ascends`` is reflexive;
    and every competitor G satisfies G(t) <= G(K X) <= M(X) for each of
    those bounds, so G <= G*.  The side therefore passes iff G* <= ext at
    every object.  The sup side is the dual: G*(t) is the least grid value
    at or above every bound M(X) with ``ascends[K(X), t]``.  If some object
    has no admissible grid value, no competitor exists and the side passes.

    The free relation comes from ``pcat.preorder_collapse``, so an oracle
    that is inexact, irreflexive or intransitive on the target objects
    raises before any side is checked.  Returns ``passed`` and one message
    per beaten (side, object) pair in ``violations``, giving G*'s value.
    """
    covariant = prob.monotone.variance == COVARIANT
    relation = preorder_collapse(prob.target_oracle, target_objects)
    # a contravariant competitor ascends along the reversed arrows
    ascends = relation if covariant else relation.T

    index_of = {id(ref): i for i, ref in enumerate(target_objects)}

    def locate(image: ResourceRef) -> int:
        if id(image) in index_of:
            return index_of[id(image)]
        for i, ref in enumerate(target_objects):
            if ref == image:
                return i
        raise ValueError("functor image is not among the target objects")

    bounds = [
        (locate(prob.functor.map_object(x)), prob.monotone.evaluate(x))
        for x in prob.candidates
    ]
    results = [extension(prob, y) for y in target_objects]

    violations: list[str] = []
    for side, ext_values, takes_inf in (
        ("minimal", [lo.value for lo, _ in results], covariant),
        ("maximal", [hi.value for _, hi in results], not covariant),
    ):
        # sees[t][k]: the bound at image k constrains G(t)
        sees = (ascends if takes_inf else ascends.T).tolist()
        extreme = []
        for t in range(len(target_objects)):
            seen = [m for k, m in bounds if sees[t][k]]
            fits = [g for g in value_grid if all(_ordered(g, m, takes_inf) for m in seen)]
            if not fits:
                break  # no competitor exists, so the side passes
            extreme.append(max(fits) if takes_inf else min(fits))
        else:
            for t, (g, ext) in enumerate(zip(extreme, ext_values)):
                if not _ordered(g, ext, takes_inf):
                    violations.append(
                        f"{side} extension beaten at object {t}: G={g} vs {ext}"
                    )

    return {"passed": not violations, "violations": violations}
