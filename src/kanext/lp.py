"""Feasibility deciders for constrained stochastic matrices.

All questions here reduce to equality-form LP feasibility over nonnegative
variables, decided by a phase-1 simplex with Bland's anti-cycling rule.
Problem sizes are small (a few hundred variables), so the tableau is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .prob import DimensionMismatch, Dist, StochMatrix

# Artificial objective below this counts as zero, and witnesses must satisfy
# every constraint to within it.
FEAS_TOL = 1e-9
# Reduced-cost / pivot-element threshold inside the simplex.
_PIVOT_TOL = 1e-11
# Ratio-test values within this of the least one tie; Bland's rule then
# picks the leaving row.
_RATIO_TIE_TOL = 1e-12
# Equality tolerance for the deterministic-map partition search.
DETERMINISTIC_TOL = 1e-10
# Function enumeration is |Y|^|X|; keep |X| at desk scale.
DETERMINISTIC_SIZE_CAP = 12


class SimplexIterationError(RuntimeError):
    """Iteration budget exhausted; unreachable under Bland's rule in theory."""


class SizeLimitError(ValueError):
    """Problem exceeds the enumeration cap."""


@dataclass(frozen=True)
class LpFeasibility:
    """Equality constraints A x = b over variables x >= 0."""

    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatch(f"{a.shape[0]} rows vs {b.shape[0]} right-hand sides")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("constraints must be finite")
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)


@dataclass(frozen=True)
class FeasResult:
    """Outcome of a feasibility question, with a witness when feasible."""

    status: str
    witness: object | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def solve_feasibility(problem: LpFeasibility) -> FeasResult:
    """Phase-1 simplex: feasible iff the artificial objective reaches zero."""
    a = np.array(problem.a_eq, dtype=float)
    b = np.array(problem.b_eq, dtype=float)
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1
    b[neg] *= -1

    # Tableau columns: n structural variables, m artificials, rhs.  The
    # bottom row carries reduced costs priced out for the artificial basis.
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    max_iter = 100 * (n + m) + 500
    for _ in range(max_iter):
        negative = t[m, :n + m] < -_PIVOT_TOL
        enter = int(negative.argmax())  # Bland: lowest eligible index
        if not negative[enter]:
            break
        col = t[:m, enter]
        valid = col > _PIVOT_TOL
        if not valid.any():
            raise SimplexIterationError("unbounded pivot column in phase 1")
        ratios = np.where(valid, t[:m, -1] / np.where(valid, col, 1.0), np.inf)
        tied = ratios <= ratios.min() + _RATIO_TIE_TOL
        leave = int(np.where(tied, basis, n + m).argmin())  # Bland tie-break
        t[leave] /= t[leave, enter]
        factor = t[:, enter].copy()
        factor[leave] = 0.0
        t -= factor[:, None] * t[leave]
        t[:, enter] = 0.0
        t[leave, enter] = 1.0
        basis[leave] = enter
    else:
        raise SimplexIterationError(f"no convergence in {max_iter} iterations")

    if -t[m, -1] > FEAS_TOL:
        return FeasResult("infeasible")
    x = np.zeros(n + m)
    x[basis] = np.maximum(t[:m, -1], 0.0)
    return FeasResult("feasible", x[:n].copy())


@lru_cache(maxsize=128)
def _row_sum_structure(n: int, k: int) -> np.ndarray:
    rows = np.zeros((n, n * k))
    for i in range(n):
        rows[i, i * k:(i + 1) * k] = 1.0
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=128)
def _uniform_structure(n: int, k: int) -> np.ndarray:
    """Row-sum rows plus all but the last column-sum row."""
    block = np.zeros((n + k - 1, n * k))
    block[:n] = _row_sum_structure(n, k)
    for j in range(k - 1):
        block[n + j, j::k] = 1.0
    block.setflags(write=False)
    return block


def exists_uniform_map(p: Dist, q: Dist) -> FeasResult:
    """Is there a uniform stochastic matrix carrying p to q?

    Uniform means rows sum to 1 and every column sums to |X|/|Y|; for equal
    lengths this is doubly stochastic.  Majorization q <= p holds exactly
    when such a matrix exists, which tests exploit as a cross-check.

    The last column-sum and image constraints are implied by the rest (both
    blocks total the row sums), so they are dropped from the system.
    """
    n, k = len(p), len(q)
    a = np.zeros((n + 2 * (k - 1), n * k))
    a[:n + k - 1] = _uniform_structure(n, k)       # row sums, column sums
    for j in range(k - 1):                         # image constraint p M = q
        a[n + k - 1 + j, j::k] = p.weights
    b = np.concatenate([np.ones(n), np.full(k - 1, n / k), q.weights[:-1]])
    res = solve_feasibility(LpFeasibility(a, b))
    if not res.feasible:
        return res
    return FeasResult("feasible", StochMatrix(res.witness.reshape(n, k)))


def exists_joint_stochastic_map(
    pair: tuple[Dist, Dist], target: tuple[Dist, Dist]
) -> FeasResult:
    """Is there one stochastic M with p M = p' and q M = q'?"""
    p, q = pair
    p2, q2 = target
    if len(p) != len(q):
        raise DimensionMismatch("pair components must share a length")
    if len(p2) != len(q2):
        raise DimensionMismatch("target components must share a length")
    n, k = len(p), len(p2)
    # one image constraint per component is implied by the row sums
    a = np.zeros((n + 2 * (k - 1), n * k))
    a[:n] = _row_sum_structure(n, k)
    for j in range(k - 1):
        a[n + j, j::k] = p.weights
        a[n + k - 1 + j, j::k] = q.weights
    b = np.concatenate([np.ones(n), p2.weights[:-1], q2.weights[:-1]])
    res = solve_feasibility(LpFeasibility(a, b))
    if not res.feasible:
        return res
    return FeasResult("feasible", StochMatrix(res.witness.reshape(n, k)))


def exists_deterministic_map(p: Dist, q: Dist) -> FeasResult:
    """Is there a function on outcomes carrying p to q?

    Searches assignments of p's outcomes to q's by backtracking over partial
    sums, largest weights first.  Outcomes never map onto zero entries of q,
    so those entries keep empty preimages.
    """
    n, k = len(p), len(q)
    if n > DETERMINISTIC_SIZE_CAP:
        raise SizeLimitError(f"|X| = {n} exceeds cap {DETERMINISTIC_SIZE_CAP}")
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
        return FeasResult("infeasible")
    m = np.zeros((n, k))
    m[np.arange(n), assignment] = 1.0
    return FeasResult("feasible", StochMatrix(m))
