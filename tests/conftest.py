import numpy as np
import pytest

from kanext.prob import Dist, simplex_grid
from kanext.quantum import BipartitePure


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def bell_state() -> BipartitePure:
    return BipartitePure(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


def product_state() -> BipartitePure:
    return BipartitePure(np.array([1, 0, 0, 0], dtype=complex), (2, 2))


def ghz3_state() -> BipartitePure:
    v = np.zeros(9, dtype=complex)
    v[[0, 4, 8]] = 1 / np.sqrt(3)  # |00> + |11> + |22>
    return BipartitePure(v, (3, 3))


def random_pure(rng: np.random.Generator, dims: tuple[int, int]) -> BipartitePure:
    v = rng.normal(size=dims[0] * dims[1]) + 1j * rng.normal(size=dims[0] * dims[1])
    return BipartitePure(v / np.linalg.norm(v), dims)


def low_rank_pure(rng: np.random.Generator, dims: tuple[int, int], rank: int) -> BipartitePure:
    """A random state whose coefficient matrix has the given rank: a
    product of random (dA, rank) and (rank, dB) matrices."""
    da, db = dims
    a = rng.normal(size=(da, rank)) + 1j * rng.normal(size=(da, rank))
    b = rng.normal(size=(rank, db)) + 1j * rng.normal(size=(rank, db))
    v = (a @ b).reshape(-1)
    return BipartitePure(v / np.linalg.norm(v), dims)


def grid_dists(length: int, step: float) -> list[Dist]:
    """The rows of ``simplex_grid`` as distributions, in grid order."""
    return [Dist.of_row(w) for w in simplex_grid(length, step)]


def sparse_dist(rng, n: int) -> np.ndarray:
    """Dirichlet weights with about a third of the entries zeroed."""
    w = rng.dirichlet(np.ones(n))
    w[rng.random(n) < 0.3] = 0.0
    if w.sum() == 0:
        w[rng.integers(n)] = 1.0
    return w / w.sum()


def nudged(rng, w: np.ndarray) -> np.ndarray:
    """w moved by 1e-7 to 1e-3 along a random zero-sum direction: images
    pushed just inside or just outside the reachable set."""
    d = rng.normal(size=w.size)
    d -= d.mean()
    v = np.clip(w + 10 ** rng.uniform(-7, -3) * d, 0.0, None)
    return v / v.sum()
