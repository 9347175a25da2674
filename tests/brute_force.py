"""Brute-force searches that only the tests use.

Both extensions re-evaluated by explicit looping, the optimality check by
enumerating every grid-valued competitor monotone, a pairwise monotonicity
check, a grid search for uniform maps with the grid spec it enumerates,
the deterministic-map search without its pruning, and a sampled upper
bound on the Schmidt number of mixed states.  Nothing here shares
reduction or comparison helpers with the extension engine; agreement
between the two code paths is what the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kanext.kan import ExtensionProblem
from kanext.lp import DETERMINISTIC_TOL
from kanext.pcat import (
    COVARIANT,
    VALUE_SLACK,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
    ext_leq,
)
from kanext.prob import INF, Dist, ExtValue, InvariantViolation, StochMatrix, simplex_grid
from kanext.quantum import RANK_TOL, BipartitePure, DensityMatrix, eig_hermitian, schmidt_rank


def bf_minimal_extension(problem: ExtensionProblem, y: ResourceRef) -> ExtValue:
    """Direct re-evaluation of the minimal extension by explicit looping."""
    covariant = problem.monotone.variance == COVARIANT
    best = None
    for x in problem.candidates:
        image = problem.functor.map_object(x)
        if problem.target_oracle.decide(y, image).reachable:
            v = problem.monotone.evaluate(x)
            if best is None:
                best = v
            elif covariant and v < best:
                best = v
            elif not covariant and v > best:
                best = v
    if best is None:
        return INF if covariant else 0.0
    return best


def bf_maximal_extension(problem: ExtensionProblem, y: ResourceRef) -> ExtValue:
    """Direct re-evaluation of the maximal extension by explicit looping."""
    covariant = problem.monotone.variance == COVARIANT
    best = None
    for x in problem.candidates:
        image = problem.functor.map_object(x)
        if problem.target_oracle.decide(image, y).reachable:
            v = problem.monotone.evaluate(x)
            if best is None:
                best = v
            elif covariant and v > best:
                best = v
            elif not covariant and v < best:
                best = v
    if best is None:
        return 0.0 if covariant else INF
    return best


def _enumerate_monotones(relation, grid, bounds, upper, covariant):
    """DFS over grid assignments respecting the free relation and per-object
    bounds (from above when ``upper``, from below otherwise); prunes as soon
    as a partial assignment fails."""
    n = len(relation)
    values = [None] * n
    # a contravariant assignment ascends along the reversed arrows
    ascends = [[relation[s][t] if covariant else relation[t][s] for t in range(n)]
               for s in range(n)]

    def respects(t, g):
        b = bounds[t]
        if b is not None and not (g <= b if upper else b <= g):
            return False
        for s in range(t):
            if ascends[s][t] and not values[s] <= g:
                return False
            if ascends[t][s] and not g <= values[s]:
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


def bf_beaten_extensions(
    problem: ExtensionProblem,
    objects: list[ResourceRef],
    grid: tuple[ExtValue, ...],
    ext_values: list[tuple[ExtValue, ExtValue]],
) -> tuple[set[tuple[str, int]], tuple[int, int]]:
    """Enumerate every grid-valued competitor monotone on a finite target
    theory and test the universal property of the given (minimal, maximal)
    extension values, one pair per object.

    A competitor respects the oracle's relation per the variance and obeys
    the hypothesis on images: G(K X) <= M(X) on the side that takes an inf,
    >= on the side that takes a sup.  Returns the (side, object index)
    pairs where some competitor beats the extension value, and the number
    of competitors enumerated on the minimal and the maximal side.
    """
    covariant = problem.monotone.variance == COVARIANT
    relation = [
        [problem.target_oracle.decide(a, b).reachable for b in objects] for a in objects
    ]
    hypotheses = [
        (objects.index(problem.functor.map_object(x)), problem.monotone.evaluate(x))
        for x in problem.candidates
    ]
    beaten = set()
    counts = []
    for index, (side, takes_inf) in enumerate(
        (("minimal", covariant), ("maximal", not covariant))
    ):
        # the tightest hypothesis on each object
        bounds = [None] * len(objects)
        for t, m in hypotheses:
            if bounds[t] is None or (m < bounds[t] if takes_inf else m > bounds[t]):
                bounds[t] = m
        count = 0
        for g in _enumerate_monotones(relation, grid, bounds, takes_inf, covariant):
            count += 1
            for t, values in enumerate(ext_values):
                ext = values[index]
                if not (g[t] <= ext if takes_inf else ext <= g[t]):
                    beaten.add((side, t))
        counts.append(count)
    return beaten, tuple(counts)


@dataclass(frozen=True)
class Violation:
    """One ordered pair on which a monotone disrespects reachability."""

    source: ResourceRef
    target: ResourceRef
    value_source: ExtValue
    value_target: ExtValue


def check_monotone(
    oracle: ReachabilityOracle,
    mono: MonotoneSpec,
    pairs: list[tuple[ResourceRef, ResourceRef]],
) -> list[Violation]:
    """Collect order violations of a monotone over reachable pairs."""
    violations = []
    for a, b in pairs:
        if not oracle.decide(a, b).reachable:
            continue
        va = mono.evaluate(a)
        vb = mono.evaluate(b)
        if mono.variance == COVARIANT:
            ok = ext_leq(va, vb, VALUE_SLACK)
        else:
            ok = ext_leq(vb, va, VALUE_SLACK)
        if not ok:
            violations.append(Violation(a, b, va, vb))
    return violations


@dataclass(frozen=True)
class GridSpec:
    """Step size and caps for grid-discretized enumeration."""

    step: float
    max_length: int = 6

    def __post_init__(self):
        if not 0 < self.step <= 1:
            raise InvariantViolation(f"step {self.step} outside (0, 1]")
        units = round(1.0 / self.step)
        if abs(units * self.step - 1.0) > 1e-12:
            raise InvariantViolation(f"step {self.step} does not divide 1")


def grid_distributions(spec: GridSpec, length: int) -> list[Dist]:
    if length > spec.max_length:
        raise InvariantViolation(f"length {length} exceeds cap {spec.max_length}")
    return [Dist.of_row(w) for w in simplex_grid(length, spec.step)]


def bf_uniform_map_search(
    p: Dist, q: Dist, spec: GridSpec, tol: float = 1e-9
) -> StochMatrix | None:
    """Search grid-valued uniform matrices carrying p to q.

    Certifies reachability when it finds a witness; a miss only means no
    witness exists at this grid resolution.
    """
    n, k = len(p), len(q)
    rows = [r.weights for r in grid_distributions(spec, k)]
    col_target = np.full(k, n / k)
    chosen: list[np.ndarray] = []

    def search(i: int, col_sums: np.ndarray, image: np.ndarray) -> bool:
        if i == n:
            return bool(
                np.all(np.abs(col_sums - col_target) <= tol)
                and np.all(np.abs(image - q.weights) <= tol)
            )
        for r in rows:
            new_cols = col_sums + r
            if np.any(new_cols > col_target + tol):
                continue
            new_image = image + p.weights[i] * r
            if np.any(new_image > q.weights + tol):
                continue
            chosen.append(r)
            if search(i + 1, new_cols, new_image):
                return True
            chosen.pop()
        return False

    if search(0, np.zeros(k), np.zeros(k)):
        return StochMatrix(np.vstack(chosen))
    return None


def undeduplicated_deterministic_map(p: Dist, q: Dist) -> StochMatrix | None:
    """The deterministic-map search without pruning of interchangeable
    entries, no refusal by support size and no node budget: every entry of
    q is tried for every outcome, largest weights first.  Returns the first
    function found, as a 0/1 matrix, or None."""
    n, k = len(p), len(q)
    targets = q.weights
    order = np.argsort(-p.weights)
    assignment = np.full(n, -1, dtype=int)
    sums = np.zeros(k)

    def backtrack(idx: int) -> bool:
        if idx == n:
            return bool(np.all(np.abs(sums - targets) <= DETERMINISTIC_TOL))
        i = order[idx]
        w = p.weights[i]
        for j in range(k):
            if targets[j] == 0.0:
                continue
            if sums[j] + w <= targets[j] + DETERMINISTIC_TOL:
                assignment[i] = j
                sums[j] += w
                if backtrack(idx + 1):
                    return True
                sums[j] -= w
                assignment[i] = -1
        return False

    if not backtrack(0):
        return None
    m = np.zeros((n, k))
    m[np.arange(n), assignment] = 1.0
    return StochMatrix(m)


def schmidt_number_upper_bound(
    rho: DensityMatrix, dims: tuple[int, int], trials: int, seed: int
) -> int:
    """Least worst-case Schmidt rank over sampled pure-state decompositions.

    Decompositions are unitary remixes of the eigendecomposition (which is
    always included), so the result upper-bounds the true Schmidt number and
    is exact on pure states.
    """
    da, db = dims
    if da > 4 or db > 4:
        raise InvariantViolation(f"dims {dims} exceed the (4, 4) cap")
    spectrum = eig_hermitian(rho)
    keep = spectrum.eigenvalues.weights > RANK_TOL
    weights = spectrum.eigenvalues.weights[keep]
    vectors = spectrum.eigenvectors[:, keep]
    r = int(keep.sum())
    scaled = vectors * np.sqrt(weights)

    def decomposition_rank(mix: np.ndarray) -> int:
        worst = 0
        for row in mix:
            component = scaled @ row
            norm = np.linalg.norm(component)
            if norm <= 1e-9:
                continue
            psi = BipartitePure(component / norm, dims)
            worst = max(worst, schmidt_rank(psi))
        return worst

    best = decomposition_rank(np.eye(r, dtype=complex))
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(t))
        z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        u, _ = np.linalg.qr(z)
        best = min(best, decomposition_rank(u.T))
    return best
