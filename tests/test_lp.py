import itertools
import time

import numpy as np
import pytest

from brute_force import undeduplicated_deterministic_map
from conftest import grid_dists, nudged, sparse_dist
from kanext import lp
from kanext.lp import (
    FEAS_TOL,
    LP_VARIABLES_CAP,
    SizeLimitError,
    exists_deterministic_map,
    exists_joint_stochastic_map,
    exists_uniform_map,
    joint_map_mask,
    uniform_map_mask,
)
from kanext.prob import (
    DimensionMismatch,
    Dist,
    StochMatrix,
    kl_divergence,
    random_stochastic,
    relative_majorization_mask,
    shannon_entropy,
    simplex_grid,
)
from kanext.theories import rand_uniform_oracle
from maps import apply, is_deterministic, is_uniform_matrix, majorizes, relatively_majorizes


def brute_force_deterministic(p: Dist, q: Dist) -> bool:
    """Independent oracle: try every function X -> Y outright."""
    n, k = len(p), len(q)
    for image in itertools.product(range(k), repeat=n):
        sums = np.zeros(k)
        for i, j in enumerate(image):
            sums[j] += p.weights[i]
        if np.all(np.abs(sums - q.weights) <= 1e-10):
            if all(q.weights[j] > 0 or j not in image for j in range(k)):
                return True
    return False


def solve(a, b) -> np.ndarray | None:
    """``lp._solve`` on a hand-written system."""
    return lp._solve(np.atleast_2d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float))


class TestSolveFeasibility:
    def test_single_variable_feasible(self):
        x = solve([[1.0]], [1.0])
        assert x is not None
        assert x[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_variable_infeasible(self):
        assert solve([[1.0]], [-1.0]) is None

    def test_two_by_two_system(self):
        x = solve([[1, 1], [1, -1]], [1, 0])
        assert x is not None
        assert np.allclose(x, [0.5, 0.5], atol=1e-12)

    def test_redundant_constraints(self):
        assert solve([[1, 1], [2, 2]], [1, 2]) is not None

    def test_zero_row_with_zero_rhs_is_harmless(self):
        assert solve([[1, 1], [0, 0]], [1, 0]) is not None

    def test_zero_row_with_nonzero_rhs_is_infeasible(self):
        assert solve([[1, 1], [0, 0]], [1, 0.5]) is None

    def test_inconsistent_duplicate_rows(self):
        assert solve([[1, 1], [1, 1]], [1, 2]) is None

    def test_witness_satisfies_constraints(self, rng):
        for _ in range(50):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            a = rng.normal(size=(m, n))
            x0 = rng.uniform(0, 1, size=n)
            x = solve(a, a @ x0)
            assert x is not None
            assert np.all(x >= 0)
            assert np.max(np.abs(a @ x - a @ x0)) <= FEAS_TOL

    def test_agrees_with_scipy(self, rng):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for trial in range(60):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            a = rng.normal(size=(m, n))
            if trial % 2 == 0:
                b = a @ rng.uniform(0, 1, size=n)  # feasible by construction
            else:
                b = rng.normal(size=m)
            ours = solve(a, b) is not None
            ref = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=(0, None)).status == 0
            assert ours == ref


class TestExistsUniformMap:
    def test_identity_case(self):
        p = Dist([0.3, 0.7])
        assert exists_uniform_map(p, p) is not None

    def test_toward_uniform(self):
        assert exists_uniform_map(Dist([0.7, 0.3]), Dist([0.5, 0.5])) is not None

    def test_away_from_uniform_infeasible(self):
        p, q = Dist([0.5, 0.5]), Dist([0.7, 0.3])
        res = exists_uniform_map(p, q)
        assert res is None
        assert majorizes(p, q) == (res is not None)

    def test_witness_is_uniform_and_correct(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            p = Dist(rng.dirichlet(np.ones(n)))
            q = Dist(rng.dirichlet(np.ones(n)))
            w = exists_uniform_map(p, q)
            if w is not None:
                assert isinstance(w, StochMatrix)
                assert is_uniform_matrix(w)
                assert np.max(np.abs(apply(p, w).weights - q.weights)) <= FEAS_TOL

    def test_rectangular_shapes(self):
        # merging two outcomes into one is uniform: the single column sums to 2
        assert exists_uniform_map(Dist([0.5, 0.5]), Dist([1.0])) is not None
        # splitting a point mass cannot preserve uniformity unless the target
        # is uniform
        assert exists_uniform_map(Dist([1.0]), Dist([0.5, 0.5])) is not None
        assert exists_uniform_map(Dist([1.0]), Dist([0.7, 0.3])) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_majorization_on_sampled_grid(self, n, rng):
        grid = grid_dists(n, 0.05)
        idx = rng.integers(0, len(grid), size=(150, 2))
        for i, j in idx:
            p, q = grid[i], grid[j]
            assert (exists_uniform_map(p, q) is not None) == majorizes(p, q)

    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_majorization_larger_lengths(self, n, rng):
        grid = grid_dists(n, 0.05)
        idx = rng.integers(0, len(grid), size=(150, 2))
        for i, j in idx:
            p, q = grid[i], grid[j]
            assert (exists_uniform_map(p, q) is not None) == majorizes(p, q)


class TestExistsJointStochasticMap:
    def test_identity_target(self):
        pair = (Dist([0.9, 0.1]), Dist([0.2, 0.8]))
        assert exists_joint_stochastic_map(pair, pair) is not None

    def test_collapse_to_uniform_pair(self):
        pair = (Dist([0.9, 0.1]), Dist([0.2, 0.8]))
        u = Dist.uniform(3)
        assert exists_joint_stochastic_map(pair, (u, u)) is not None

    def test_full_support_cannot_split(self):
        pair = (Dist([0.9, 0.1]), Dist([0.1, 0.9]))
        target = (Dist([1, 0]), Dist([0, 1]))
        assert exists_joint_stochastic_map(pair, target) is None

    def test_witness_carries_both_components(self, rng):
        for _ in range(30):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            p = Dist(rng.dirichlet(np.ones(n)))
            q = Dist(rng.dirichlet(np.ones(n)))
            m = random_stochastic(rng, n, k)
            target = (apply(p, m), apply(q, m))
            w = exists_joint_stochastic_map((p, q), target)
            assert w is not None
            assert np.max(np.abs(apply(p, w).weights - target[0].weights)) <= FEAS_TOL
            assert np.max(np.abs(apply(q, w).weights - target[1].weights)) <= FEAS_TOL

    def test_data_processing_inequality(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            p = Dist(rng.dirichlet(np.ones(n)))
            q = Dist(rng.dirichlet(np.ones(n)))
            m = random_stochastic(rng, n, int(rng.integers(2, 4)))
            p2, q2 = apply(p, m), apply(q, m)
            if exists_joint_stochastic_map((p, q), (p2, q2)) is not None:
                assert kl_divergence(p2, q2) <= kl_divergence(p, q) + 1e-9


def uniform_map(rng, n: int, k: int) -> np.ndarray:
    """A random n x k matrix with rows summing to 1 and columns to n/k."""
    m = rng.random((n, k)) + 0.05
    for _ in range(500):
        m /= m.sum(axis=1, keepdims=True)
        m *= (n / k) / m.sum(axis=0)
    return m / m.sum(axis=1, keepdims=True)


class TestRelativelyMajorizesAgreesWithLp:
    """The closed-form decider against the LP, an independent code path."""

    def test_joint_stochastic_maps(self, rng):
        verdicts = []
        for i in range(400):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            draw = sparse_dist if i % 4 >= 2 else lambda r, m: r.dirichlet(np.ones(m))
            p, q = draw(rng, n), draw(rng, n)
            if i % 2 == 0:
                m = rng.dirichlet(np.ones(k), size=n)
                p2, q2 = p @ m, q @ m
                if i % 8 == 0 and k > 1:
                    p2 = nudged(rng, p2)
            else:
                p2, q2 = draw(rng, k), draw(rng, k)
            pair, target = (Dist(p), Dist(q)), (Dist(p2), Dist(q2))
            lp_says = exists_joint_stochastic_map(pair, target) is not None
            assert relatively_majorizes(pair, target) == lp_says, (p, q, p2, q2)
            assert joint_map_mask(*(d.weights for d in pair + target)) == lp_says
            verdicts.append(lp_says)
        assert 0.2 < np.mean(verdicts) < 0.9

    def test_uniform_maps_at_unequal_lengths(self, rng):
        verdicts = []
        for i in range(300):
            n, k = rng.choice(np.arange(1, 6), size=2, replace=False)
            p = sparse_dist(rng, n) if i % 3 == 0 else rng.dirichlet(np.ones(n))
            if i % 2 == 0:
                q = p @ uniform_map(rng, n, k)
                if i % 4 == 0 and k > 1:
                    q = nudged(rng, q)
            else:
                q = sparse_dist(rng, k) if i % 5 == 0 else rng.dirichlet(np.ones(k))
            p, q = Dist(p), Dist(q)
            lp_says = exists_uniform_map(p, q) is not None
            closed = relatively_majorizes((p, Dist.uniform(n)), (q, Dist.uniform(k)))
            assert closed == lp_says == rand_uniform_oracle(p, q).reachable, (p, q)
            assert uniform_map_mask(p.weights, q.weights) == lp_says
            verdicts.append(lp_says)
        assert 0.2 < np.mean(verdicts) < 0.9

    def test_uniform_maps_on_grids_of_unequal_lengths(self):
        for n, k in [(2, 3), (3, 2), (4, 3)]:
            for p in grid_dists(n, 0.25):
                for q in grid_dists(k, 0.25):
                    assert (
                        rand_uniform_oracle(p, q).reachable
                        == (exists_uniform_map(p, q) is not None)
                    ), (p, q)


def split(rng, w: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """w spread over outcomes, outcome i taking a random share of
    w[bins[i]]: merging the outcomes of each bin gives w back."""
    shares = rng.random(bins.size) + 0.05
    return w[bins] * shares / np.bincount(bins, shares)[bins]


def lp_family(rng, n: int, k: int, count: int):
    """A length-k pair y and ``count`` length-n pairs: images of y, pairs
    that merge onto y (for n >= k), nudged copies of both, and sparse or
    dense draws, so that both directions see both verdicts."""
    y = (sparse_dist(rng, k), rng.dirichlet(np.ones(k)))
    bins = np.concatenate([np.arange(k), rng.integers(0, k, size=max(n - k, 0))])
    rows = []
    for i in range(count):
        kind = i % 4 if n >= k else i % 2 * 2
        if kind == 0:
            m = rng.dirichlet(np.ones(n), size=k)
            p, q = y[0] @ m, y[1] @ m
        elif kind == 1:
            p, q = split(rng, y[0], bins), split(rng, y[1], bins)
        else:
            draw = sparse_dist if i % 3 == 0 else lambda r, m: r.dirichlet(np.ones(m))
            p, q = draw(rng, n), draw(rng, n)
        if i % 5 == 4 and n > 1:
            p = nudged(rng, p)
        rows.append((p, q))
    p, q = (np.array(side) for side in zip(*rows))
    return y, p, q


class TestRelativeMajorizationMaskAgreesWithLp:
    """Each row of the batched test against the single-pair call and the LP,
    in both directions."""

    SHAPES = [(4, 3), (3, 3), (3, 4), (5, 2), (2, 5), (1, 3), (3, 1)]

    def test_joint_stochastic_maps(self, rng):
        verdicts = {True: [], False: []}
        for n, k in self.SHAPES:
            (p2, q2), p, q = lp_family(rng, n, k, 16)
            target = (Dist(p2), Dist(q2))
            masks = {
                True: relative_majorization_mask(p2, q2, p, q),
                False: relative_majorization_mask(p, q, p2, q2),
            }
            lp_masks = {
                True: joint_map_mask(p2, q2, p, q),
                False: joint_map_mask(p, q, p2, q2),
            }
            for i in range(len(p)):
                pair = (Dist(p[i]), Dist(q[i]))
                for forward, mask in masks.items():
                    source, image = (target, pair) if forward else (pair, target)
                    lp_says = exists_joint_stochastic_map(source, image) is not None
                    assert mask[i] == relatively_majorizes(source, image) == lp_says, (n, k, i)
                    assert lp_masks[forward][i] == lp_says, (n, k, i)
                    verdicts[forward].append(lp_says)
        for seen in verdicts.values():
            assert 0.15 < np.mean(seen) < 0.85

    def test_uniform_maps(self, rng):
        verdicts = {True: [], False: []}
        for n, k in self.SHAPES:
            (p2, _), p, _ = lp_family(rng, n, k, 16)
            un, uk = np.full(n, 1 / n), np.full(k, 1 / k)
            masks = {
                True: relative_majorization_mask(p2, uk, p, un),
                False: relative_majorization_mask(p, un, p2, uk),
            }
            lp_masks = {True: uniform_map_mask(p2, p), False: uniform_map_mask(p, p2)}
            for i in range(len(p)):
                a, b = Dist(p2), Dist(p[i])
                for forward, mask in masks.items():
                    source, image = (a, b) if forward else (b, a)
                    lp_says = exists_uniform_map(source, image) is not None
                    pairs = (source, Dist.uniform(len(source))), (image, Dist.uniform(len(image)))
                    assert mask[i] == relatively_majorizes(*pairs) == lp_says, (n, k, i)
                    assert lp_masks[forward][i] == lp_says, (n, k, i)
                    verdicts[forward].append(lp_says)
        for seen in verdicts.values():
            assert 0.15 < np.mean(seen) < 0.85


class TestBatchedSimplex:
    """The batched masks against the per-pair deciders, and each system's
    outcome alone against its outcome inside a batch."""

    def test_uniform_mask_matches_per_pair_on_grid(self):
        w = simplex_grid(3, 0.1)  # 66 points, 4,356 ordered pairs
        grid = [Dist.of_row(row) for row in w]
        mask = uniform_map_mask(w[:, None], w[None, :])
        per_pair = [[(exists_uniform_map(p, q) is not None) for q in grid] for p in grid]
        assert np.array_equal(mask, per_pair)
        assert 0.1 < mask.mean() < 0.9

    def test_joint_mask_matches_per_pair_on_grid(self):
        w = simplex_grid(3, 0.1)
        grid = [Dist.of_row(row) for row in w]
        r = Dist([0.5, 0.3, 0.2])
        mask = joint_map_mask(w[:, None], r.weights, w[None, :], r.weights)
        per_pair = [
            [(exists_joint_stochastic_map((p, r), (q, r)) is not None) for q in grid]
            for p in grid
        ]
        assert np.array_equal(mask, per_pair)
        assert 0.1 < mask.mean() < 0.9

    @staticmethod
    def systems(rng, rows: int = 48):
        """Uniform and joint systems from 4 to 3 outcomes, both verdicts
        among them: images under random maps, nudged images and point
        masses."""
        n, k = 4, 3
        p = np.array([sparse_dist(rng, n) if i % 3 == 0 else rng.dirichlet(np.ones(n))
                      for i in range(rows)])
        q = rng.dirichlet(np.ones(n), size=rows)
        images, pairs = [], []
        for i in range(rows):
            m = rng.dirichlet(np.ones(k), size=n)
            image, pair = p[i] @ uniform_map(rng, n, k), (p[i] @ m, q[i] @ m)
            if i % 4 == 1:
                image, pair = nudged(rng, image), (nudged(rng, pair[0]), pair[1])
            elif i % 2:  # point masses, out of reach of most p and (p, q)
                image, pair = np.eye(k)[0], (np.eye(k)[0], np.eye(k)[1])
            images.append(image)
            pairs.append(pair)
        p2, q2 = (np.array(side) for side in zip(*pairs))
        uniform = lp._joint_system(np.ones((rows, n)), p, np.full((rows, k), n / k),
                                   np.array(images))
        return [uniform, lp._joint_system(p, q, p2, q2)]

    def test_row_alone_or_in_a_shuffled_batch(self, rng):
        for a, b in self.systems(rng):
            together = lp._phase1(a, b)
            order = rng.permutation(len(a))
            shuffled = lp._phase1(a[order], b[order])
            assert 0.2 < together[0].mean() < 0.9
            for i in range(len(a)):
                alone = lp._phase1(a[i:i + 1], b[i:i + 1])
                at = int(np.flatnonzero(order == i)[0])
                for whole, row in ((together, i), (shuffled, at)):
                    for got, want in zip(whole, alone):
                        assert np.array_equal(got[row], want[0]), i
                # the witness _solve reports is built from the same basis
                x_alone = lp._solve(a[i], b[i])
                assert (x_alone is not None) == alone[0][0]
                if x_alone is not None:
                    x = np.zeros(a.shape[2] + a.shape[1])
                    x[alone[1][0]] = np.maximum(alone[2][0], 0.0)
                    assert np.array_equal(x_alone, x[:a.shape[2]])

    def test_chunks_do_not_change_verdicts(self, monkeypatch):
        w = simplex_grid(3, 0.25)
        whole = uniform_map_mask(w[:, None], w[None, :])
        for entries in (1, 1000):  # one system per chunk; 7 with a short last chunk
            monkeypatch.setattr(lp, "LP_CHUNK_ENTRIES", entries)
            assert np.array_equal(uniform_map_mask(w[:, None], w[None, :]), whole)

    def test_shapes(self):
        half = np.full(2, 0.5)
        assert uniform_map_mask(np.empty((0, 3)), np.empty((0, 2))).shape == (0,)
        assert joint_map_mask(np.full((2, 1, 2), 0.5), half,
                              np.full((3, 2), 0.5), half).shape == (2, 3)
        assert uniform_map_mask(np.array([0.7, 0.3]), np.array([0.5, 0.5])).shape == ()
        with pytest.raises(DimensionMismatch):
            joint_map_mask(np.full(2, 0.5), np.full(3, 1 / 3), np.ones(1), np.ones(1))
        n, k = 33, LP_VARIABLES_CAP // 32  # one source outcome over the cap
        with pytest.raises(SizeLimitError, match=f"cap of {LP_VARIABLES_CAP}"):
            uniform_map_mask(np.full(n, 1 / n), np.full(k, 1 / k))


class TestExistsDeterministicMap:
    def test_merge_everything(self, rng):
        p = Dist(rng.dirichlet(np.ones(5)))
        res = exists_deterministic_map(p, Dist([1.0]))
        assert res is not None
        assert is_deterministic(res)

    def test_identity_or_swap(self):
        res = exists_deterministic_map(Dist([0.5, 0.5]), Dist([0.5, 0.5]))
        assert res is not None

    def test_unachievable_split(self):
        p, q = Dist([0.5, 0.5]), Dist([0.7, 0.3])
        assert exists_deterministic_map(p, q) is None
        assert not brute_force_deterministic(p, q)

    def test_zero_target_entries_get_empty_preimages(self):
        res = exists_deterministic_map(Dist([0.5, 0.5, 0.0]), Dist([1.0, 0.0]))
        assert res is not None
        assert np.all(res.entries[:, 1] == 0.0)

    def test_agrees_with_brute_force(self, rng):
        grids = {n: grid_dists(n, 0.05) for n in range(1, 6)}
        for _ in range(40):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            candidates = grids[n]
            p = candidates[int(rng.integers(0, len(candidates)))]
            q = Dist(rng.dirichlet(np.ones(k)))
            if rng.random() < 0.5:
                # make feasible instances common: push p through a function
                f = rng.integers(0, k, size=n)
                img = np.zeros(k)
                for i, j in enumerate(f):
                    img[j] += p.weights[i]
                q = Dist(img)
            res = exists_deterministic_map(p, q)
            assert (res is not None) == brute_force_deterministic(p, q)
            if res is not None:
                assert is_deterministic(res)
                assert np.max(np.abs(apply(p, res).weights - q.weights)) <= 1e-9

    def test_entropy_never_increases_when_feasible(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            p = Dist(rng.dirichlet(np.ones(n)))
            k = int(rng.integers(1, n + 1))
            f = rng.integers(0, k, size=n)
            img = np.zeros(k)
            for i, j in enumerate(f):
                img[j] += p.weights[i]
            q = Dist(img)
            if exists_deterministic_map(p, q) is not None:
                assert shannon_entropy(p) >= shannon_entropy(q) - 1e-10

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            exists_deterministic_map(Dist.uniform(13), Dist([1.0]))

    @pytest.mark.parametrize("k,feasible", [(5, False), (11, False), (12, True)])
    def test_uniform_source_of_twelve_is_quick(self, k, feasible):
        start = time.perf_counter()
        res = exists_deterministic_map(Dist.uniform(12), Dist.uniform(k))
        assert time.perf_counter() - start < 1.0
        assert (res is not None) == feasible

    def test_agrees_with_undeduplicated_search(self, rng):
        grids = {n: simplex_grid(n, 0.1) for n in range(1, 7)}
        verdicts = []
        for i in range(300):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            if i % 3 == 0:  # repeated weights
                p = grids[n][int(rng.integers(len(grids[n])))]
            elif i % 3 == 1:
                p = rng.dirichlet(np.ones(3))[rng.integers(0, 3, size=n)]
                p = p / p.sum()
            else:
                p = sparse_dist(rng, n)
            f = rng.integers(0, k, size=n)
            q = np.bincount(f, weights=p, minlength=k)
            if i % 4 == 3:
                q = nudged(rng, q)
            elif i % 4 == 2:
                q = grids[k][int(rng.integers(len(grids[k])))]
            p, q = Dist(p), Dist(q)
            res = exists_deterministic_map(p, q)
            want = undeduplicated_deterministic_map(p, q)
            assert (res is not None) == (want is not None), (p, q)
            if want is not None:
                assert np.array_equal(res.entries, want.entries), (p, q)
            verdicts.append(res is not None)
        assert 0.3 < np.mean(verdicts) < 0.9
        # an entry of q within the tolerance needs no outcome of its own
        p, q = Dist([1.0]), Dist([1 - 1e-12, 1e-12])
        assert exists_deterministic_map(p, q) is not None
        assert undeduplicated_deterministic_map(p, q) is not None

    def test_equal_entries_of_q_agree_with_undeduplicated_search(self, rng):
        # k equal entries of q, each cut into whole twelfths and shuffled,
        # so a function exists: an entry tried first can fail where an
        # equal one, filled differently, succeeds
        for _ in range(300):
            k = int(rng.integers(2, 4))
            cuts = [sorted(rng.choice(np.arange(1, 12), size=int(rng.integers(3)),
                                      replace=False)) for _ in range(k)]
            p = rng.permutation(np.concatenate([np.diff([0, *c, 12]) for c in cuts]))
            p, q = Dist(p / p.sum()), Dist.uniform(k)
            res = exists_deterministic_map(p, q)
            assert res is not None, (p, q)
            assert np.array_equal(res.entries,
                                  undeduplicated_deterministic_map(p, q).entries), (p, q)

    def test_more_entries_in_q_than_outcomes_is_refused_without_search(self, monkeypatch):
        monkeypatch.setattr(lp, "DETERMINISTIC_NODE_BUDGET", 0)
        assert exists_deterministic_map(Dist([0.5, 0.5, 0.0]), Dist([0.4, 0.3, 0.3])) is None
        with pytest.raises(SizeLimitError):
            exists_deterministic_map(Dist([0.5, 0.5]), Dist([1.0]))

    def test_node_budget(self, monkeypatch):
        # twelve distinct weights into two near halves: no split is exact
        p = Dist(np.arange(1, 13) / 78)
        q = Dist([0.5 + 1e-3, 0.5 - 1e-3])
        assert exists_deterministic_map(p, q) is None
        monkeypatch.setattr(lp, "DETERMINISTIC_NODE_BUDGET", 100)
        with pytest.raises(SizeLimitError, match="100 nodes"):
            exists_deterministic_map(p, q)
