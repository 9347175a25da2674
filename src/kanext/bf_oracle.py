"""Randomized finite toy theories for ``verify optimality``.

A toy theory is given directly by its free-reachability matrix.  The
sampled ones are random preorders on a few objects, with monotone values
drawn from the fixed grid TOY_GRID, which also holds the values of every
competitor monotone that ``verify optimality`` compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kan import ExtensionProblem, FunctorMap
from .pcat import CONTRAVARIANT, COVARIANT, Decision, MonotoneSpec, ReachabilityOracle, ResourceRef
from .prob import INF, ExtValue, InvariantViolation

TOY_ID = "toy"
TOY_GRID: tuple[ExtValue, ...] = (0.0, 0.5, 1.0, 2.0, INF)
# chance that a random preorder draws each edge before closure
EDGE_DENSITY = 0.35


@dataclass(frozen=True, eq=False)
class ToyTheory:
    """A finite theory given directly by its free-reachability matrix."""

    relation: np.ndarray

    def __post_init__(self):
        rel = np.asarray(self.relation, dtype=bool)
        n = rel.shape[0]
        if rel.shape != (n, n):
            raise InvariantViolation("relation must be square")
        rel.setflags(write=False)
        object.__setattr__(self, "relation", rel)
        object.__setattr__(
            self, "_objects", tuple(ResourceRef(TOY_ID, i) for i in range(n))
        )

    @property
    def objects(self) -> tuple[ResourceRef, ...]:
        return self._objects

    def oracle(self) -> ReachabilityOracle:
        def decide(a: ResourceRef, b: ResourceRef) -> Decision:
            return Decision(bool(self.relation[a.payload, b.payload]))

        return ReachabilityOracle(TOY_ID, decide, exact=True)


def random_preorder(rng: np.random.Generator, n: int) -> np.ndarray:
    """Reflexive-transitive closure of a random edge set on n objects."""
    rel = np.eye(n, dtype=bool) | (rng.random((n, n)) < EDGE_DENSITY)
    for k in range(n):
        rel |= np.outer(rel[:, k], rel[k, :])
    return rel


def random_toy_problem(
    rng: np.random.Generator, max_objects: int = 6
) -> tuple[ExtensionProblem, list[ResourceRef], tuple[ExtValue, ...]]:
    """A random extension problem over a toy target theory of 2 to
    ``max_objects`` objects, those objects, and the value grid.

    The source theory is discrete (identities only), so any assignment of
    TOY_GRID values to candidates is a valid monotone of either variance.
    """
    n = int(rng.integers(2, max_objects + 1))
    theory = ToyTheory(random_preorder(rng, n))
    n_candidates = int(rng.integers(1, n + 1))
    image_index = rng.integers(0, n, size=n_candidates)
    values = {k: TOY_GRID[int(rng.integers(0, len(TOY_GRID)))] for k in range(n_candidates)}
    variance = COVARIANT if rng.random() < 0.5 else CONTRAVARIANT

    objects = theory.objects
    candidates = tuple(ResourceRef("toy_src", k) for k in range(n_candidates))
    monotone = MonotoneSpec("toy_value", lambda ref: values[ref.payload], variance)
    functor = FunctorMap(
        "toy_embed",
        "toy_src",
        TOY_ID,
        lambda ref: objects[image_index[ref.payload]],
    )
    problem = ExtensionProblem(
        monotone, functor, theory.oracle(), candidates, candidates_complete=True
    )
    return problem, list(objects), TOY_GRID
