"""Finite probability distributions, stochastic maps, Lorenz curves, majorization.

Distributions are row vectors: a stochastic matrix M acts on the right,
``q = p @ M``.  Entropies and divergences are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

# Values of monotones live on the extended half-line [0, inf].  Plain floats
# with math.inf cover everything we need: total order, min/max, comparisons.
ExtValue = float
INF = math.inf

# Sum-to-one repair threshold: inputs off by less than this are renormalized,
# anything worse is rejected as garbage.
NORMALIZATION_TOL = 1e-9
# Entry/row-sum checks after repair.
STOCHASTIC_TOL = 1e-12
# Slack for ordinate comparisons in majorization and relative majorization
# (covers cumsum and hockey-stick summation error, n <= 64, the longest
# payload cli.PAYLOAD_LENGTH_CAP admits).  It is tighter than lp.FEAS_TOL
# (1e-9): it bounds the rounding of one closed-form sum of at most 2n
# products of weights, while FEAS_TOL bounds the residual of a simplex run
# whose pivots compound their rounding.  The LP cross-checks in the tests
# nudge images by 1e-7 to 1e-3, far beyond both tolerances.
ORDER_SLACK = 1e-10
# A grid step divides 1 when 1/step times step is within this of 1.
STEP_TOL = 1e-12
# Most entries of one (rows, n + k, n + k) temporary of a batched
# relative-majorization test; larger batches are decided in row chunks.
MASK_CHUNK_ENTRIES = 1 << 18
# Most points simplex_grid will build; the largest grid the tests sweep is
# length 5 at step 0.05 (10,626 points).
GRID_POINTS_CAP = 20_000


class DimensionMismatch(ValueError):
    """Operands have incompatible lengths or shapes."""


class InvariantViolation(ValueError):
    """Input fails a type invariant (negativity, normalization, shape)."""


class GridSizeError(ValueError):
    """A simplex grid is empty or larger than GRID_POINTS_CAP."""


def ext_to_json(value: ExtValue):
    """Render an extended value for JSON; infinity has no JSON literal."""
    return "inf" if value == INF else float(value)


def dist_rows(weights) -> np.ndarray:
    """The ``Dist`` invariant over the rows of a 2-D weight array: at least
    one outcome, no weight below -STOCHASTIC_TOL, and a sum within
    NORMALIZATION_TOL of 1 after negatives are clipped to 0.  Returns the
    read-only matrix of rows divided by their sums; ``Dist`` is the one-row
    case.  The first failing row raises the error that ``Dist`` raises for
    it alone.  Each row is summed along its own axis, so its weights do not
    depend on the rows validated with it.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape[1] < 1:
        raise InvariantViolation("distribution needs at least one outcome")
    negative = w < -STOCHASTIC_TOL
    clipped = np.clip(w, 0.0, None)
    total = clipped.sum(axis=1)
    # written so that a NaN total fails too
    normalized = np.abs(total - 1.0) < NORMALIZATION_TOL
    if negative.any() or not normalized.all():
        i = int((negative.any(axis=1) | ~normalized).argmax())
        if negative[i].any():
            raise InvariantViolation(f"negative weight in {w[i]}")
        raise InvariantViolation(f"weights sum to {total[i]}, expected 1")
    clipped /= total[:, None]
    clipped.setflags(write=False)
    return clipped


@dataclass(frozen=True)
class Dist:
    """A finite probability distribution."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(1, -1)
        object.__setattr__(self, "weights", dist_rows(w)[0])

    @classmethod
    def of_row(cls, row: np.ndarray) -> "Dist":
        """The distribution over a row of a ``dist_rows`` matrix, which
        already holds the invariant: nothing is checked or normalized
        again, so its weights keep every bit."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "weights", row)
        return dist

    def __len__(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(n: int) -> "Dist":
        return Dist(np.full(n, 1.0 / n))

    def to_json(self) -> list[float]:
        return [float(x) for x in self.weights]


@dataclass(frozen=True)
class StochMatrix:
    """A row-stochastic matrix mapping |X| outcomes to |Y| outcomes."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise InvariantViolation(f"expected a 2-d matrix, got shape {m.shape}")
        if np.any(m < -STOCHASTIC_TOL):
            raise InvariantViolation("negative entry in stochastic matrix")
        m = np.clip(m, 0.0, None)
        row_sums = m.sum(axis=1)
        if not np.all(np.abs(row_sums - 1.0) < NORMALIZATION_TOL):
            raise InvariantViolation(f"row sums {row_sums} deviate from 1")
        m = m / row_sums[:, None]
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def to_json(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.entries]


def entropy_rows(w: np.ndarray) -> np.ndarray:
    """H = -sum w_i log2 w_i along the last axis, with 0 log 0 = 0, and
    never below 0 (nor -0.0).  ``shannon_entropy`` is the one-row case;
    each row is summed along its own axis, so its value does not depend on
    the rows evaluated with it."""
    h = -(w * np.log2(np.where(w > 0, w, 1.0))).sum(axis=-1)
    return np.where(h > 0.0, h, 0.0)


def shannon_entropy(p: Dist) -> ExtValue:
    """H(p) = -sum p_i log2 p_i, with 0 log 0 = 0.  Lies in [0, log2 n]."""
    return float(entropy_rows(p.weights))


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy sum p_i log2(p_i / q_i) along the last axis of two
    weight arrays of one shape: infinite where some p_i > 0 has q_i = 0,
    and 0.0 where the sum's rounding falls below 0 by less than
    STOCHASTIC_TOL.  ``kl_divergence`` is the one-row case."""
    support = p > 0
    live = support & (q > 0)
    terms = p * np.log2(np.where(live, p, 1.0) / np.where(live, q, 1.0))
    total = terms.sum(axis=-1)
    total = np.where((-STOCHASTIC_TOL < total) & (total < 0), 0.0, total)
    return np.where((support & ~live).any(axis=-1), INF, total)


def kl_divergence(p: Dist, q: Dist) -> ExtValue:
    """Relative entropy sum p_i log2(p_i / q_i); infinite off q's support."""
    if len(p) != len(q):
        raise DimensionMismatch(f"lengths {len(p)} and {len(q)} differ")
    return float(kl_rows(p.weights, q.weights))


def _lorenz_ordinates(weights: np.ndarray) -> np.ndarray:
    """Partial sums of the increasing rearrangement, along the last axis."""
    return np.cumsum(np.sort(weights, axis=-1), axis=-1)


def lorenz_curve(p: Dist) -> np.ndarray:
    """The (n + 1, 2) knots (i/n, partial sums) of the increasing
    rearrangement of p, from (0, 0) to (1, 1); the curve is linear between
    consecutive knots."""
    n = len(p)
    x = np.arange(n + 1) / n
    y = np.concatenate(([0.0], _lorenz_ordinates(p.weights)))
    y[-1] = 1.0
    return np.column_stack([x, y])


def lorenz_csv(knots: np.ndarray) -> str:
    """Lorenz knots as CSV text: an ``x,y`` header and one row per knot."""
    lines = ["x,y"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in knots]
    return "\n".join(lines) + "\n"


def majorization_mask(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where q is majorized by p, for weight arrays of one length whose
    leading axes broadcast: the Lorenz ordinates of p lie on or below those
    of q at every knot, with ORDER_SLACK.  One row against an (N, n) matrix
    decides N pairs at once, and two 1-D arrays decide one pair.
    """
    return (_lorenz_ordinates(p) <= _lorenz_ordinates(q) + ORDER_SLACK).all(axis=-1)


def _uniform_rows(q: np.ndarray) -> bool:
    """True iff every row of q (along the last axis) is constant."""
    return bool((q == q[..., :1]).all())


@lru_cache(maxsize=64)
def _signs(n: int, k: int) -> np.ndarray:
    """+1 on a source pair's n entries, -1 on a target pair's k entries."""
    sign = np.repeat((1.0, -1.0), (n, k))
    sign.setflags(write=False)
    return sign


def _hockey_stick_test(p, q, p2, q2) -> np.ndarray:
    """Blackwell's test on pairs of one leading shape.

    Both pairs sit side by side, and ``_signs`` turns a sum over them into
    E_t(p||q) - E_t(p2||q2).  Every entry is a breakpoint t = a/b: the
    (a, b) row of ``d - d^T`` holds b x_j - a y_j.  At a dead one (b = 0)
    both sides are 0, so the test there passes by itself.  The sums run
    along the last axis of fresh arrays, so a row's verdict does not depend
    on how many rows are decided with it.
    """
    sign = _signs(p.shape[-1], p2.shape[-1])
    x = np.concatenate((p, p2), axis=-1)
    y = np.concatenate((q, q2), axis=-1)
    d = y[..., :, None] * x[..., None, :]
    h = d - d.swapaxes(-1, -2)
    gap = (np.maximum(h, 0.0, out=h) * sign).sum(axis=-1)
    return (gap >= -ORDER_SLACK * y).all(axis=-1)


def relative_majorization_mask(
    p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Where one stochastic matrix carries p to p2 and q to q2.

    p and q share a last-axis length n, p2 and q2 a length k; the leading
    axes broadcast, so an (N, n) batch is decided against one length-k pair
    in either direction by one call; two 1-D pairs decide one pair.

    Blackwell's theorem for dichotomies (Blackwell 1953; Renes, J. Math.
    Phys. 57, 2016, arXiv:1510.03695): such an M exists iff for every t >= 0
    the hockey-stick value E_t(p||q) = sum_i (p_i - t q_i)_+ is at least
    E_t(p2||q2).  Both sides equal 1 at t = 0 and are piecewise linear in t,
    with breakpoints p_i/q_i (q_i > 0) and p2_j/q2_j (q2_j > 0); from the
    last one on both sides are constant at their limits sum_{q_i = 0} p_i.
    So the breakpoints decide.  A breakpoint t = a/b is evaluated as
    b E_t = sum_i (b p_i - a q_i)_+, which divides by nothing.  Each
    comparison allows ORDER_SLACK on E_t.

    With n = k and every q row uniform this is majorization of p over p2
    (a doubly stochastic map; Hardy, Littlewood and Polya 1929), decided by
    the sorted-cumsum ``majorization_mask`` instead.
    """
    n, k = p.shape[-1], p2.shape[-1]
    if q.shape[-1] != n:
        raise DimensionMismatch("pair components must share a length")
    if q2.shape[-1] != k:
        raise DimensionMismatch("target components must share a length")
    if n == k and _uniform_rows(q) and _uniform_rows(q2):
        return majorization_mask(p, p2)
    if p.ndim == q.ndim == p2.ndim == q2.ndim == 1:
        return _hockey_stick_test(p, q, p2, q2)
    lead = np.broadcast_shapes(p.shape[:-1], q.shape[:-1], p2.shape[:-1], q2.shape[:-1])
    flat = [np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1])
            for a in (p, q, p2, q2)]
    step = max(1, MASK_CHUNK_ENTRIES // (n + k) ** 2)
    chunks = [
        _hockey_stick_test(*(a[i:i + step] for a in flat))
        for i in range(0, len(flat[0]), step)
    ]
    return np.concatenate([np.zeros(0, bool), *chunks]).reshape(lead)


def simplex_grid(length: int, step: float) -> np.ndarray:
    """All distributions of the given length with weights on a step grid,
    as the rows of one read-only ``dist_rows`` matrix.

    Points come in lexicographic order of their weights.  The point count,
    C(1/step + length - 1, length - 1), is checked against GRID_POINTS_CAP
    before any point is built.
    """
    units = round(1.0 / step)
    if abs(units * step - 1.0) > STEP_TOL:
        raise InvariantViolation(f"step {step} does not divide 1")
    if length < 1:
        raise GridSizeError(f"grid length {length} must be at least 1")
    points = math.comb(units + length - 1, length - 1)
    if points > GRID_POINTS_CAP:
        raise GridSizeError(
            f"grid of length {length} at step {step} has {points} points, "
            f"over the cap of {GRID_POINTS_CAP}"
        )
    # cumulative unit counts run non-decreasing from 0 to units
    cuts = np.array(
        list(combinations_with_replacement(range(units + 1), length - 1)), dtype=int
    ).reshape(points, length - 1)
    return dist_rows(np.diff(cuts, axis=1, prepend=0, append=units) * step)


def random_stochastic(rng: np.random.Generator, n: int, k: int) -> StochMatrix:
    """A random row-stochastic n x k matrix with Dirichlet(1) rows."""
    return StochMatrix(rng.dirichlet(np.ones(k), size=n))


def random_uniform_matrix(rng: np.random.Generator, n: int, terms: int = 4) -> StochMatrix:
    """A random doubly stochastic n x n matrix, mixed from permutations."""
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((n, n))
    for w in weights:
        m += w * np.eye(n)[rng.permutation(n)]
    return StochMatrix(m)
