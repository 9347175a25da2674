"""Feasibility deciders for constrained stochastic matrices.

All questions here reduce to equality-form LP feasibility over nonnegative
variables, decided by a phase-1 simplex with Bland's anti-cycling rule.
Every question is one system, a stochastic map carrying a pair of weight
vectors to another pair (``_joint_system``).  Problem sizes are small (at
most LP_VARIABLES_CAP variables), so the tableau is dense, and many systems
of one shape are solved at once as a stack of tableaux; a single system is
a stack of one.
"""

from __future__ import annotations

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
# Most entries of one stack of tableaux; larger batches of systems are
# built and solved in row chunks.
LP_CHUNK_ENTRIES = 1 << 15
# Most entries (n k, one LP variable each) of a map the simplex looks for.
# A joint map between random images took 0.8 s at 32 x 31 and 17 s at
# 48 x 47 on a 2-core Xeon VM.
LP_VARIABLES_CAP = 1_024
# Function enumeration is |Y|^|X|; keep |X| at desk scale.
DETERMINISTIC_SIZE_CAP = 12
# Most search-tree nodes (one outcome placed on one entry of q) the
# deterministic-map search examines before it gives up, about 0.6 s of
# search on a 2-core Xeon VM.
DETERMINISTIC_NODE_BUDGET = 2_000_000


class SimplexIterationError(RuntimeError):
    """Iteration budget exhausted; unreachable under Bland's rule in theory."""


class SizeLimitError(ValueError):
    """Problem exceeds a size cap of the LP or the deterministic-map search."""


def _phase1(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase-1 simplex on a stack of systems A x = b, x >= 0: ``a`` is
    (B, m, n) and ``b`` is (B, m).

    Returns whether each system is feasible (its artificial objective ends
    within FEAS_TOL of zero), its final basis (B, m) and its basic values
    (B, m).  Each iteration pivots every unfinished system once, by Bland's
    rule: the lowest-index column with a negative reduced cost enters, and
    among the rows whose ratio ties the least one the lowest basic index
    leaves.  Every step is elementwise along a system's own rows, or a
    reduction within them, so a system's outcome does not depend on the
    others solved with it.
    """
    count, m, n = a.shape
    # Tableau columns: n structural variables, m artificials, rhs.  Rows
    # with a negative right-hand side are negated first.  The bottom row
    # carries reduced costs priced out for the artificial basis.
    t = np.zeros((count, m + 1, n + m + 1))
    t[:, :m, :n] = a
    t[:, :m, -1] = b
    t[:, :m][b < 0] *= -1
    t[:, :m, n:n + m] = np.eye(m)
    t[:, m, :n] = -t[:, :m, :n].sum(axis=1)
    t[:, m, -1] = -t[:, :m, -1].sum(axis=1)
    basis = np.tile(np.arange(n, n + m), (count, 1))

    feasible = np.empty(count, dtype=bool)
    final_basis = np.empty((count, m), dtype=basis.dtype)
    values = np.empty((count, m))
    live = np.arange(count)  # each unfinished system's index in the stack
    rows = np.arange(count)
    max_iter = 100 * (n + m) + 500
    for _ in range(max_iter):
        negative = t[:, m, :n + m] < -_PIVOT_TOL
        enter = negative.argmax(axis=1)  # Bland: lowest eligible index
        going = negative[rows, enter]
        if np.count_nonzero(going) < live.size:  # some systems finish
            stop = ~going
            done = live[stop]
            feasible[done] = ~(-t[stop, m, -1] > FEAS_TOL)
            final_basis[done] = basis[stop]
            values[done] = t[stop, :m, -1]
            t, basis, live, enter = t[going], basis[going], live[going], enter[going]
            rows = np.arange(live.size)
        if not live.size:
            break
        factor = t[rows, :, enter]
        col = factor[:, :m]
        valid = col > _PIVOT_TOL
        ratios = np.divide(t[:, :m, -1], col, out=np.full(col.shape, np.inf), where=valid)
        least = ratios.min(axis=1, keepdims=True)
        if np.count_nonzero(least == np.inf):
            raise SimplexIterationError("unbounded pivot column in phase 1")
        tied = ratios <= least + _RATIO_TIE_TOL
        leave = np.where(tied, basis, n + m).argmin(axis=1)  # Bland tie-break
        pivot = t[rows, leave]
        pivot /= factor[rows, leave][:, None]
        # The leaving row is overwritten below.  Elsewhere x - x * 1.0 is
        # exactly 0, so the entering column clears itself.
        t -= factor[:, :, None] * pivot[:, None, :]
        t[rows, leave] = pivot
        basis[rows, leave] = enter
    else:
        raise SimplexIterationError(f"no convergence in {max_iter} iterations")
    return feasible, final_basis, values


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A nonnegative x with A x = b for one system, from the phase-1 basis
    of a stack of one, or None if there is none."""
    feasible, basis, values = _phase1(a[None], b[None])
    if not feasible[0]:
        return None
    x = np.zeros(a.shape[1] + basis.shape[1])
    x[basis[0]] = np.maximum(values[0], 0.0)
    return x[:a.shape[1]].copy()


@lru_cache(maxsize=128)
def _row_sum_structure(n: int, k: int) -> np.ndarray:
    rows = np.zeros((n, n * k))
    for i in range(n):
        rows[i, i * k:(i + 1) * k] = 1.0
    rows.setflags(write=False)
    return rows


def _joint_system(
    p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A x = b for one stochastic map carrying row i of p and q (N, n) to
    row i of p2 and q2 (N, k), with x the map's n k entries, row-major.
    One image constraint per component is implied by the row sums, so it
    is dropped.  Maps of more than LP_VARIABLES_CAP entries are refused
    before anything is built."""
    rows, n = p.shape
    k = p2.shape[1]
    if q.shape[1] != n:
        raise DimensionMismatch("pair components must share a length")
    if q2.shape[1] != k:
        raise DimensionMismatch("target components must share a length")
    if n * k > LP_VARIABLES_CAP:
        raise SizeLimitError(
            f"a {n} x {k} map has {n * k} LP variables, over the cap of {LP_VARIABLES_CAP}"
        )
    a = np.zeros((rows, n + 2 * (k - 1), n * k))
    a[:, :n] = _row_sum_structure(n, k)
    for j in range(k - 1):
        a[:, n + j, j::k] = p
        a[:, n + k - 1 + j, j::k] = q
    b = np.concatenate([np.ones((rows, n)), p2[:, :-1], q2[:, :-1]], axis=1)
    return a, b


def _joint_map(
    p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> StochMatrix | None:
    """The simplex's map carrying p and q to p2 and q2, or None."""
    a, b = _joint_system(p[None], q[None], p2[None], q2[None])
    x = _solve(a[0], b[0])
    return None if x is None else StochMatrix(x.reshape(len(p), len(p2)))


def exists_uniform_map(p: Dist, q: Dist) -> StochMatrix | None:
    """A uniform stochastic matrix carrying p to q, or None.

    Uniform means rows sum to 1 and every column sums to |X|/|Y|; for equal
    lengths this is doubly stochastic.  Those are exactly the stochastic
    maps carrying u_n to u_k (Gour et al., arXiv:1309.6586), so this is the
    joint map of (1_n, p) to ((n/k) 1_k, q).  Majorization q <= p holds
    exactly when such a matrix exists, which tests exploit as a cross-check.
    """
    n, k = len(p), len(q)
    return _joint_map(np.ones(n), p.weights, np.full(k, n / k), q.weights)


def uniform_map_mask(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where a uniform map carries p to q, for weight arrays of lengths n
    and k whose leading axes broadcast: ``exists_uniform_map``'s verdict on
    every pair, from one batched simplex and with no witness."""
    n, k = p.shape[-1], q.shape[-1]
    return joint_map_mask(np.ones(n), p, np.full(k, n / k), q)


def exists_joint_stochastic_map(
    pair: tuple[Dist, Dist], target: tuple[Dist, Dist]
) -> StochMatrix | None:
    """One stochastic M with p M = p' and q M = q', or None."""
    return _joint_map(*(d.weights for d in pair + target))


def joint_map_mask(
    p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Where one stochastic map carries p to p2 and q to q2, for weight
    arrays whose leading axes broadcast (p and q of length n, p2 and q2 of
    length k): ``exists_joint_stochastic_map``'s verdict on every row, from
    one batched simplex and with no witness.  The rows are built and solved
    LP_CHUNK_ENTRIES tableau entries at a time."""
    arrays = (p, q, p2, q2)
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in arrays))
    lead = shape or (1,)
    views = [np.broadcast_to(x, lead + x.shape[-1:]) for x in arrays]
    n, k = p.shape[-1], p2.shape[-1]
    m, width = n + 2 * (k - 1), n * k
    step = max(1, LP_CHUNK_ENTRIES // ((m + 1) * (width + m + 1)))
    total = int(np.prod(lead))
    verdict = np.empty(total, dtype=bool)
    for start in range(0, total, step):
        at = np.unravel_index(np.arange(start, min(start + step, total)), lead)
        verdict[start:start + step] = _phase1(*_joint_system(*(v[at] for v in views)))[0]
    return verdict.reshape(shape)


def exists_deterministic_map(p: Dist, q: Dist) -> StochMatrix | None:
    """A function on outcomes carrying p to q, as a 0/1 matrix, or None.

    Searches assignments of p's outcomes to q's by backtracking over partial
    sums, largest weights first.  Outcomes never map onto zero entries of q,
    so those entries keep empty preimages.

    Two entries of q with the same weight and the same share filled so far
    are interchangeable for the rest of the search: each share is the sum
    of its outcomes in search order, whatever was tried before.  So at each
    depth an entry whose (weight, filled) pair has already been tried, and
    failed, is skipped, and the first assignment found is the one the full
    search finds.  Past DETERMINISTIC_NODE_BUDGET nodes the search gives up
    with SizeLimitError.
    """
    n, k = len(p), len(q)
    if n > DETERMINISTIC_SIZE_CAP:
        raise SizeLimitError(f"|X| = {n} exceeds cap {DETERMINISTIC_SIZE_CAP}")
    # every entry of q beyond the tolerance needs an outcome of its own
    if np.count_nonzero(q.weights > DETERMINISTIC_TOL) > np.count_nonzero(p.weights):
        return None
    targets = q.weights.tolist()
    order = np.argsort(-p.weights)
    weights = p.weights[order].tolist()
    assignment = [-1] * n
    sums = [0.0] * k
    nodes = 0

    def backtrack(idx: int) -> bool:
        nonlocal nodes
        nodes += k  # the placements examined below, pruned ones included
        if nodes > DETERMINISTIC_NODE_BUDGET:
            raise SizeLimitError(
                f"deterministic-map search passed {DETERMINISTIC_NODE_BUDGET} nodes"
            )
        if idx == n:
            return all(abs(s - t) <= DETERMINISTIC_TOL for s, t in zip(sums, targets))
        w = weights[idx]
        tried = set()
        for j, (target, filled) in enumerate(zip(targets, sums)):
            if target == 0.0 or (target, filled) in tried:
                continue
            if filled + w <= target + DETERMINISTIC_TOL:
                tried.add((target, filled))
                assignment[idx] = j
                sums[j] = filled + w
                if backtrack(idx + 1):
                    return True
                sums[j] = filled
        return False

    if not backtrack(0):
        return None
    m = np.zeros((n, k))
    m[order, assignment] = 1.0
    return StochMatrix(m)
