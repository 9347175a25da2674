"""Resource objects, reachability oracles, monotones, and preorder collapse.

A resource theory enters the engine as a reachability oracle: a decision
procedure for "is there a free transformation A -> B".  Monotones are value
assignments tagged covariant (values grow along free arrows) or
contravariant (values shrink).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .prob import INF, Dist, ExtValue, relative_majorization_mask

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

# Slack for order checks on evaluated monotones.
VALUE_SLACK = 1e-9
# Objects whose entries all agree within this are one object, joined by the
# identity arrow.
IDENTITY_TOL = 1e-10


class OracleSoundnessError(RuntimeError):
    """A reachability oracle returned an intransitive or irreflexive relation."""


def ext_leq(a: ExtValue, b: ExtValue, slack: float = 0.0) -> bool:
    """a <= b with slack, without doing arithmetic on infinity."""
    if b == INF:
        return True
    if a == INF:
        return False
    return a <= b + slack


@dataclass(frozen=True)
class ResourceRef:
    """A resource: a theory id plus the theory's object payload."""

    theory_id: str
    payload: Any

    def describe(self) -> str:
        payload = self.payload
        if hasattr(payload, "weights"):
            body = "[" + ", ".join(f"{w:.6g}" for w in payload.weights) + "]"
        elif isinstance(payload, tuple):
            body = "pair"
        elif hasattr(payload, "dim"):
            body = f"dim={payload.dim}"
        elif hasattr(payload, "dims"):
            body = f"dims={payload.dims}"
        else:
            body = repr(payload)
        return f"{self.theory_id}:{body}"


@dataclass(frozen=True)
class Decision:
    """Outcome of one reachability query.

    ``exact=False`` marks sampled or family-restricted answers: a negative
    then means "not certified", not "impossible".
    """

    reachable: bool
    witness: Any = None
    exact: bool = True


class Dichotomy(NamedTuple):
    """The order key of an object: weight arrays p and q of one length, or
    (N, n) arrays for a batch of keys.  One key reaches another where one
    stochastic matrix carries its p and q to the other's (Blackwell 1953).

    ``identity`` says that the key is written in one fixed basis, so that
    two such keys that agree entry by entry within IDENTITY_TOL belong to
    one object, which reaches itself by the identity arrow.
    ``across_lengths`` is False where keys of unequal lengths do not decide
    reachability exactly.
    """

    p: np.ndarray
    q: np.ndarray
    identity: bool = False
    across_lengths: bool = True

    def reaches(self, other: "Dichotomy") -> np.ndarray:
        """Where this key reaches ``other``, over their broadcast leading
        axes (``prob.relative_majorization_mask``)."""
        return relative_majorization_mask(self.p, self.q, other.p, other.q)

    def certifies(self, other: "Dichotomy", reached: np.ndarray | bool, exact: bool) -> bool:
        """Whether the decisions ``reached`` between this key and ``other``,
        in either direction, are exact: the lengths agree or both keys
        decide across lengths, and every decision is positive or the
        oracle is ``exact``."""
        decides = self.p.shape[-1] == other.p.shape[-1] or (
            self.across_lengths and other.across_lengths
        )
        return decides and (exact or bool(np.all(reached)))


def keyed_decision(a: Dichotomy, b: Dichotomy, exact: bool) -> Decision:
    """The decision between objects with keys a and b, for an oracle whose
    negatives are exact iff ``exact``: reachable iff a reaches b, with no
    witness, and exact where ``a.certifies`` it."""
    reachable = bool(a.reaches(b))
    return Decision(reachable, None, a.certifies(b, reachable, exact))


@dataclass(frozen=True)
class ReachabilityOracle:
    """Free-reachability decider for one theory.

    ``exact`` is the oracle-level claim that every decision is definitive;
    individual decisions may still downgrade themselves via Decision.exact.

    ``key``, where given, maps an object to its ``Dichotomy``, or to None
    where it has none.  Where a and b both have keys, ``decide(a, b)`` is
    ``keyed_decision`` on them, save that a positive between objects that
    are one may carry a witness of the oracle's own.  The extension sweep
    applies the same rule to all candidates at once.
    """

    theory_id: str
    decide: Callable[[ResourceRef, ResourceRef], Decision]
    exact: bool = True
    key: Callable[[ResourceRef], Dichotomy | None] | None = None


@dataclass(frozen=True, eq=False)
class DistRows(Sequence):
    """Distribution-valued objects of one theory held as weight matrices:
    one (N, n) matrix for distributions, or a p and a q matrix for pairs,
    each made by ``prob.dist_rows`` (or a row of a checked ``Dist``).
    Object i is built only when indexed, as a ``ResourceRef`` over
    ``Dist.of_row`` views of row i, so it keeps every bit of its weights.
    """

    theory_id: str
    weights: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.weights[0])

    def __getitem__(self, i: int) -> ResourceRef:
        dists = tuple(Dist.of_row(w[i]) for w in self.weights)
        return ResourceRef(self.theory_id, dists if len(dists) > 1 else dists[0])


@dataclass(frozen=True)
class MonotoneSpec:
    """A named value assignment with its variance along free arrows.

    ``rows``, where given, evaluates the monotone on rows of weight
    matrices, one per component of a ``DistRows`` object, and agrees with
    ``evaluate`` on each row.
    """

    name: str
    evaluate: Callable[[ResourceRef], ExtValue]
    variance: str
    rows: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"unknown variance {self.variance!r}")

    def values(self, objects: Sequence[ResourceRef], index: np.ndarray) -> np.ndarray:
        """The values at ``objects[i]`` for each i in ``index``, as a float
        array: one ``rows`` call on those rows of a ``DistRows``, and
        otherwise ``evaluate`` on each object."""
        if self.rows is not None and isinstance(objects, DistRows):
            return self.rows(*(w[index] for w in objects.weights))
        return np.array([self.evaluate(objects[i]) for i in index.tolist()], dtype=float)


def preorder_collapse(oracle: ReachabilityOracle, objects: list[ResourceRef]) -> np.ndarray:
    """Forget witnesses, keep reachability, over a finite object list: the
    read-only (n, n) boolean relation whose (i, j) entry says whether
    object i reaches object j.

    Requires an exact oracle; an inexact relation is not a preorder claim.
    A relation that is not reflexive and transitive raises
    OracleSoundnessError naming an object or triple that breaks it.
    """
    if not oracle.exact:
        raise ValueError("preorder collapse requires an exact oracle")
    n = len(objects)
    rel = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            d = oracle.decide(objects[i], objects[j])
            if not d.exact:
                raise ValueError(
                    f"oracle returned an inexact decision for pair ({i}, {j})"
                )
            rel[i, j] = d.reachable
    for i in range(n):
        if not rel[i, i]:
            raise OracleSoundnessError(
                f"irreflexive oracle: object {i} does not reach itself"
            )
    bad = (rel @ rel) & ~rel
    if bad.any():
        i, k = map(int, np.argwhere(bad)[0])
        j = int(np.nonzero(rel[i] & rel[:, k])[0][0])
        raise OracleSoundnessError(
            f"intransitive oracle: {i} -> {j} -> {k} but not {i} -> {k}"
        )
    rel.setflags(write=False)
    return rel
