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
``extension`` decides both sides' candidates in one sweep, as two masks,
and takes every side's bound by one rule, however the masks were decided.
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
from typing import Callable

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
    target's key is marked ``identity``, the image keys are written in its
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
    """One side of an extension: its value, the first admitted candidate
    that attains it (None where no candidate is admitted), the number of
    candidates examined, and whether the value is exact."""

    value: ExtValue
    witness: ResourceRef | None
    examined: int
    exact: bool

    def to_json(self) -> dict:
        doc: dict = {
            "value": ext_to_json(self.value),
            "examined": self.examined,
            "exact": self.exact,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.describe()
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


def _keyed(prob: ExtensionProblem, keys) -> tuple[list[np.ndarray], list[bool]]:
    """The two masks from y's key against the image keys, y -> K(X) for
    the minimal side and K(X) -> y for the maximal one, and each mask's
    exact flag, where y's key ``certifies`` it.  Where y's key is written
    in one fixed basis (``identity``), an image whose key agrees with it
    within IDENTITY_TOL is y itself and is admitted both ways."""
    target, images = keys
    masks = [target.reaches(images), images.reaches(target)]
    if target.identity and images.p.shape[-1] == len(target.p):
        same = np.all(np.abs(images.p - target.p) <= IDENTITY_TOL, axis=-1) & np.all(
            np.abs(images.q - target.q) <= IDENTITY_TOL, axis=-1
        )
        masks = [mask | same for mask in masks]
    return masks, [target.certifies(images, m, prob.target_oracle.exact) for m in masks]


def _per_pair(prob: ExtensionProblem, y: ResourceRef) -> tuple[np.ndarray, list[bool]]:
    """The same two masks and exact flags with each candidate mapped once
    and each pair handed to the oracle, once per direction; a side is exact
    where all its decisions are."""
    decide = prob.target_oracle.decide
    masks, exact = ([], []), [True, True]
    for x in prob.candidates:
        image = prob.functor.map_object(x)
        for side, d in enumerate((decide(y, image), decide(image, y))):
            masks[side].append(d.reachable)
            if not d.exact:
                exact[side] = False
    return np.array(masks, bool), exact


def extension(
    prob: ExtensionProblem, y: ResourceRef
) -> tuple[ExtensionResult, ExtensionResult]:
    """Minimal and maximal extension at y, in that order, from one sweep.

    The sweep builds two masks over the candidates: y -> K(X) admits X on
    the minimal side, K(X) -> y on the maximal side.  Where the oracle has a
    ``key`` for y, the functor a ``map_key`` for the candidates and the
    image keys have one length, no image is built and the masks compare
    the keys by the oracle's own rule (``_keyed``); otherwise each
    candidate is mapped once and the oracle decides each pair both ways
    (``_per_pair``).  Then the monotone is evaluated once, on the
    candidates some side admits (``MonotoneSpec.values``), and each side
    takes the inf or sup of its admitted values, with the first candidate
    that attains it as its witness, even where that is the empty bound.  A
    side that admits nothing takes the empty constant and no witness.  Each
    side's exact flag covers its own decisions only.
    """
    keys = _keys(prob, y)
    masks, exact = _per_pair(prob, y) if keys is None else _keyed(prob, keys)
    admitted = masks[0] | masks[1]
    values = np.empty(len(admitted))
    values[admitted] = prob.monotone.values(prob.candidates, admitted.nonzero()[0])
    covariant = prob.monotone.variance == COVARIANT
    sides = []
    for mask, takes_inf, ok in zip(masks, (covariant, not covariant), exact):
        value, witness = INF if takes_inf else 0.0, None
        side = mask.nonzero()[0]
        if side.size:
            bounds = values[side]
            # argmin and argmax return the first position that attains the bound
            at = bounds.argmin() if takes_inf else bounds.argmax()
            value, witness = float(bounds[at]), prob.candidates[int(side[at])]
        sides.append(
            ExtensionResult(value, witness, len(prob.candidates), ok and prob.candidates_complete)
        )
    lo, hi = sides
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
