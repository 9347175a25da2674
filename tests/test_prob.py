import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import grid_dists, nudged, sparse_dist
from kanext import prob
from kanext.prob import (
    Dist,
    DimensionMismatch,
    INF,
    InvariantViolation,
    StochMatrix,
    dist_rows,
    entropy_rows,
    ext_to_json,
    kl_divergence,
    kl_rows,
    lorenz_csv,
    lorenz_curve,
    majorization_mask,
    random_uniform_matrix,
    relative_majorization_mask,
    shannon_entropy,
    simplex_grid,
)
from maps import (
    apply,
    is_deterministic,
    is_uniform_matrix,
    majorizes,
    random_deterministic,
    relatively_majorizes,
)


def normalized(ws) -> Dist:
    w = np.asarray(ws, dtype=float)
    return Dist(w / w.sum())


class TestDist:
    def test_rejects_negative_weights(self):
        with pytest.raises(InvariantViolation):
            Dist([0.5, -0.1, 0.6])

    def test_repairs_tiny_normalization_drift(self):
        p = Dist([0.5, 0.5 + 5e-10])
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_normalization(self):
        with pytest.raises(InvariantViolation):
            Dist([0.5, 0.5 + 1e-6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(InvariantViolation):
            Dist([0.7, bad])

    def test_rejects_empty(self):
        with pytest.raises(InvariantViolation):
            Dist([])

    def test_json_round_trip(self):
        p = Dist([0.25, 0.75])
        assert Dist(p.to_json()).weights.tolist() == [0.25, 0.75]

    def test_weights_immutable(self):
        p = Dist([0.5, 0.5])
        with pytest.raises(ValueError):
            p.weights[0] = 0.9


class TestStochMatrix:
    def test_rejects_bad_rows(self):
        with pytest.raises(InvariantViolation):
            StochMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_nan_entries(self):
        with pytest.raises(InvariantViolation):
            StochMatrix([[0.5, np.nan], [0.5, 0.5]])

    def test_json_round_trip(self):
        m = StochMatrix([[0.5, 0.5], [0.0, 1.0]])
        assert StochMatrix(m.to_json()).entries.tolist() == m.entries.tolist()


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy(Dist([1.0, 0.0])) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy(Dist.uniform(4)) == pytest.approx(2.0, abs=1e-12)

    def test_half_quarter_quarter(self):
        # by hand: 0.5 * 1 + 0.25 * 2 + 0.25 * 2
        assert shannon_entropy(Dist([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-12)

    def test_zero_only_at_point_mass(self, rng):
        for _ in range(50):
            p = Dist(rng.dirichlet(np.ones(4)))
            if np.max(p.weights) < 1 - 1e-9:
                assert shannon_entropy(p) > 0

    def test_maximal_exactly_at_uniform_on_grid(self):
        for n in (2, 3, 4):
            h_uniform = shannon_entropy(Dist.uniform(n))
            for p in grid_dists(n, 0.1):
                h = shannon_entropy(p)
                assert h <= h_uniform + 1e-12
                if abs(h - h_uniform) <= 1e-12:
                    assert np.allclose(p.weights, 1.0 / n)


def zeroed_rows(rng, rows: int, n: int) -> np.ndarray:
    """``dist_rows`` of Dirichlet rows with about a third of the weights
    zeroed, and a point mass among them."""
    w = rng.dirichlet(np.ones(n), size=rows)
    w[rng.random(w.shape) < 0.3] = 0.0
    w[:, 0] += w.sum(axis=1) == 0
    w[0] = np.eye(n)[n - 1]
    return dist_rows(w / w.sum(axis=1, keepdims=True))


class TestRowEvaluators:
    """The row evaluators and the scalar monotones are one formula: each
    row of a batch, and any subset of rows, gets the bits of the one-row
    call."""

    def test_entropy_rows_are_batch_independent(self, rng):
        for n in range(1, 65):
            w = zeroed_rows(rng, 12, n)
            batch = entropy_rows(w)
            subset = entropy_rows(w[1::3])
            for i, row in enumerate(w):
                one = shannon_entropy(Dist.of_row(row))
                assert batch[i].tobytes() == np.float64(one).tobytes()
            assert subset.tobytes() == batch[1::3].tobytes()

    def test_kl_rows_are_batch_independent(self, rng):
        for n in range(1, 65):
            p = zeroed_rows(rng, 12, n)
            q = np.concatenate([zeroed_rows(rng, 3, n), p[3:4], zeroed_rows(rng, 8, n)])
            batch = kl_rows(p, q)
            for i in range(len(p)):
                one = kl_divergence(Dist.of_row(p[i]), Dist.of_row(q[i]))
                assert batch[i].tobytes() == np.float64(one).tobytes()
            assert batch[3] == 0.0
            assert kl_rows(p[::2], q[::2]).tobytes() == batch[::2].tobytes()

    def test_short_rows_match_the_compressed_sum(self, rng):
        # below length 8 numpy adds the terms in order, so the zero terms
        # leave the sum over the positive weights alone
        for n in range(1, 8):
            for row in zeroed_rows(rng, 20, n):
                w = row[row > 0]
                assert shannon_entropy(Dist.of_row(row)) == max(0.0, -(w * np.log2(w)).sum())

    def test_zero_entropy_is_positive_zero(self):
        values = entropy_rows(np.eye(3))
        assert not np.signbit(values).any()
        assert json.dumps(ext_to_json(shannon_entropy(Dist([0.0, 1.0])))) == "0.0"
        assert json.dumps(ext_to_json(kl_divergence(Dist([0.3, 0.7]), Dist([0.3, 0.7])))) == "0.0"

    def test_infinite_divergence_off_the_support(self):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
        q = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        assert kl_rows(p, q).tolist() == [INF, 1.0, INF]


class TestDistRows:
    def test_rows_are_the_one_row_dists(self, rng):
        w = rng.dirichlet(np.ones(5), size=30) * (1 + rng.uniform(-5e-10, 5e-10, size=(30, 1)))
        w[w < 0.05] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        rows = dist_rows(w)
        assert not rows.flags.writeable
        for row, raw in zip(rows, w):
            assert row.tobytes() == Dist(raw).weights.tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.6, -0.1, 0.5], "negative weight in [ 0.6 -0.1  0.5]"),
            ([0.5, 0.4, 0.2], "weights sum to 1.1, expected 1"),
            ([0.5, np.nan, 0.5], "weights sum to nan, expected 1"),
        ],
    )
    def test_first_failing_row_raises_its_dist_error(self, bad, message):
        rows = [[0.2, 0.3, 0.5], bad, [0.5, 0.6, -0.1]]
        with pytest.raises(InvariantViolation) as batch:
            dist_rows(rows)
        with pytest.raises(InvariantViolation) as one:
            Dist(bad)
        assert str(batch.value) == str(one.value) == message

    def test_needs_an_outcome(self):
        with pytest.raises(InvariantViolation, match="at least one outcome"):
            dist_rows(np.zeros((3, 0)))


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = Dist([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_versus_uniform(self):
        # 1 * log2(1 / 0.5)
        assert kl_divergence(Dist([1, 0]), Dist([0.5, 0.5])) == pytest.approx(1.0)

    def test_support_violation_is_infinite(self):
        assert kl_divergence(Dist([0.5, 0.5]), Dist([1, 0])) == INF

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(Dist([1.0]), Dist([0.5, 0.5]))

    def test_nonnegative_zero_iff_equal(self, rng):
        for _ in range(100):
            p = Dist(rng.dirichlet(np.ones(3)))
            q = Dist(rng.dirichlet(np.ones(3)))
            d = kl_divergence(p, q)
            assert d >= 0.0
            if d < 1e-12:
                assert np.allclose(p.weights, q.weights, atol=1e-5)


class TestLorenzCurve:
    def test_uniform_is_diagonal(self):
        pts = lorenz_curve(Dist([0.5, 0.5]))
        assert pts.tolist() == [[0, 0], [0.5, 0.5], [1, 1]]

    def test_sorts_increasing_first(self):
        pts = lorenz_curve(Dist([0.7, 0.3]))
        assert pts.tolist() == [[0, 0], [0.5, 0.3], [1, 1]]

    def test_point_mass_hugs_the_floor(self):
        pts = lorenz_curve(Dist([1.0, 0.0]))
        assert pts.tolist() == [[0, 0], [0.5, 0.0], [1, 1]]

    def test_csv_header_and_rows(self):
        csv = lorenz_csv(lorenz_curve(Dist([0.7, 0.3])))
        lines = csv.strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 4

    def test_interpolates_between_knots(self):
        x, y = lorenz_curve(Dist([0.7, 0.3])).T
        assert np.interp(0.25, x, y) == pytest.approx(0.15)
        assert np.interp(0.75, x, y) == pytest.approx(0.65)


class TestRelativelyMajorizes:
    def test_pair_reaches_itself_and_its_trivial_image(self):
        pair = (Dist([0.7, 0.2, 0.1]), Dist([0.1, 0.3, 0.6]))
        assert relatively_majorizes(pair, pair)
        assert relatively_majorizes(pair, (Dist([1.0]), Dist([1.0])))
        assert not relatively_majorizes((Dist([1.0]), Dist([1.0])), pair)

    def test_orthogonal_pair_reaches_everything(self):
        target = (Dist([0.6, 0.4]), Dist([0.3, 0.7]))
        assert relatively_majorizes((Dist([1.0, 0.0]), Dist([0.0, 1.0])), target)

    def test_limit_condition_alone_can_refuse(self):
        # q's support misses 0.5 of p's weight, q2's misses 0.6 of p2's
        source = (Dist([0.5, 0.5]), Dist([0.0, 1.0]))
        assert not relatively_majorizes(source, (Dist([0.6, 0.4]), Dist([0.0, 1.0])))
        assert relatively_majorizes(source, (Dist([0.4, 0.6]), Dist([0.0, 1.0])))

    def test_uniform_second_components_reduce_to_majorization(self):
        u = Dist.uniform(2)
        assert relatively_majorizes((Dist([0.7, 0.3]), u), (Dist([0.5, 0.5]), u))
        assert not relatively_majorizes((Dist([0.5, 0.5]), u), (Dist([0.7, 0.3]), u))

    def test_unequal_components_raise(self):
        with pytest.raises(DimensionMismatch):
            relatively_majorizes((Dist([0.5, 0.5]), Dist([1.0])), (Dist([1.0]), Dist([1.0])))
        with pytest.raises(DimensionMismatch):
            relatively_majorizes((Dist([1.0]), Dist([1.0])), (Dist([0.5, 0.5]), Dist([1.0])))


def dichotomy_batch(rng, count: int, n: int, k: int):
    """A length-k pair and ``count`` length-n pairs around it: images of
    it, nudged images, and independent dense or sparse draws."""
    p2, q2 = sparse_dist(rng, k), rng.dirichlet(np.ones(k))
    rows = []
    for i in range(count):
        if i % 3 == 0:
            m = rng.dirichlet(np.ones(n), size=k)
            p, q = p2 @ m, q2 @ m
            if i % 2 and n > 1:
                p = nudged(rng, p)
        else:
            draw = sparse_dist if i % 3 == 1 else lambda r, m: r.dirichlet(np.ones(m))
            p, q = draw(rng, n), draw(rng, n)
        rows.append((p, q))
    p, q = (np.array(side) for side in zip(*rows))
    return p, q, p2, q2


class TestRelativeMajorizationMask:
    """The batched test against its single-pair calls."""

    SHAPES = [(4, 3), (3, 4), (3, 3), (1, 2), (2, 1), (5, 5), (9, 4), (4, 9), (12, 12)]

    @staticmethod
    def pairs(p, q):
        return [(Dist(a), Dist(b)) for a, b in zip(p, q)]

    def test_rows_equal_single_pair_calls_in_both_directions(self, rng):
        verdicts = []
        for n, k in self.SHAPES:
            p, q, p2, q2 = dichotomy_batch(rng, 30, n, k)
            target = (Dist(p2), Dist(q2))
            forward = relative_majorization_mask(p2, q2, p, q)
            backward = relative_majorization_mask(p, q, p2, q2)
            assert forward.shape == backward.shape == (30,)
            for i, pair in enumerate(self.pairs(p, q)):
                assert forward[i] == relatively_majorizes(target, pair), (n, k, i)
                assert backward[i] == relatively_majorizes(pair, target), (n, k, i)
            verdicts += [*forward, *backward]
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_single_and_broadcast_calls_agree_bit_for_bit(self, rng):
        for n, k in self.SHAPES:
            p, q, p2, q2 = dichotomy_batch(rng, 24, n, k)
            forward = relative_majorization_mask(p2, q2, p, q)
            backward = relative_majorization_mask(p, q, p2, q2)
            single = [
                (relative_majorization_mask(p2, q2, a, b), relative_majorization_mask(a, b, p2, q2))
                for a, b in zip(p, q)
            ]
            assert forward.tolist() == [bool(f) for f, _ in single]
            assert backward.tolist() == [bool(b) for _, b in single]

    def test_leading_axes_broadcast(self, rng):
        p, q, p2, q2 = dichotomy_batch(rng, 12, 4, 3)
        grid = relative_majorization_mask(p.reshape(3, 4, 4), q.reshape(3, 4, 4), p2, q2)
        assert grid.shape == (3, 4)
        assert grid.reshape(-1).tolist() == relative_majorization_mask(p, q, p2, q2).tolist()
        # one q row shared by every p row
        shared = relative_majorization_mask(p, q[0], p2, q2)
        tiled = relative_majorization_mask(p, np.tile(q[0], (12, 1)), p2, q2)
        assert shared.tolist() == tiled.tolist()

    def test_chunks_change_nothing(self, rng, monkeypatch):
        p, q, p2, q2 = dichotomy_batch(rng, 40, 4, 3)
        whole = relative_majorization_mask(p, q, p2, q2)
        monkeypatch.setattr(prob, "MASK_CHUNK_ENTRIES", 100)
        assert relative_majorization_mask(p, q, p2, q2).tolist() == whole.tolist()

    def test_empty_batch(self):
        assert relative_majorization_mask(np.zeros((0, 3)), np.zeros((0, 3)), np.ones(2) / 2,
                                          np.ones(2) / 2).shape == (0,)

    def test_uniform_second_components_take_the_sorted_cumsum(self, rng):
        p = rng.dirichlet(np.ones(4), size=50)
        u = np.full(4, 0.25)
        for target in p[:5]:
            assert (
                relative_majorization_mask(target, u, p, np.tile(u, (50, 1))).tolist()
                == majorization_mask(target, p).tolist()
            )

    def test_unequal_components_raise(self):
        with pytest.raises(DimensionMismatch):
            relative_majorization_mask(np.ones((2, 3)) / 3, np.ones((2, 2)) / 2, np.ones(2) / 2,
                                       np.ones(2) / 2)


class TestMajorizes:
    def test_uniform_majorized_by_everything(self, rng):
        for n in (2, 3, 5):
            u = Dist.uniform(n)
            for _ in range(20):
                p = Dist(rng.dirichlet(np.ones(n)))
                assert majorizes(p, u)

    def test_spec_pair(self):
        assert majorizes(Dist([0.7, 0.3]), Dist([0.5, 0.5]))
        assert not majorizes(Dist([0.5, 0.5]), Dist([0.7, 0.3]))

    def test_unequal_lengths_raise(self):
        # zero-padding is Nielsen's business (quantum.locc_convertible_pure)
        with pytest.raises(DimensionMismatch):
            majorizes(Dist([1.0]), Dist([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            majorizes(Dist([0.5, 0.5]), Dist([1.0]))

    def test_reflexive_and_transitive_on_samples(self, rng):
        dists = [Dist(rng.dirichlet(np.ones(4))) for _ in range(12)]
        for p in dists:
            assert majorizes(p, p)
        for p in dists:
            for q in dists:
                for r in dists:
                    if majorizes(p, q) and majorizes(q, r):
                        assert majorizes(p, r)

    def test_uniform_matrix_image_is_majorized(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = Dist(rng.dirichlet(np.ones(n)))
            u = random_uniform_matrix(rng, n)
            assert majorizes(p, apply(p, u))


class TestApply:
    def test_identity(self):
        p = Dist([0.3, 0.7])
        assert np.allclose(apply(p, StochMatrix(np.eye(2))).weights, p.weights)

    def test_point_mass_reads_first_row(self):
        m = StochMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert apply(Dist([1, 0]), m).weights.tolist() == [0.5, 0.5]

    def test_constant_rows_output_the_row(self):
        m = StochMatrix([[0.2, 0.8], [0.2, 0.8]])
        out = apply(Dist([0.3, 0.7]), m)
        assert np.allclose(out.weights, [0.2, 0.8])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(Dist([1.0]), StochMatrix(np.eye(2)))

    def test_output_always_valid(self, rng):
        for _ in range(50):
            n, k = rng.integers(1, 6, size=2)
            p = Dist(rng.dirichlet(np.ones(n)))
            m = StochMatrix(rng.dirichlet(np.ones(k), size=n))
            out = apply(p, m)
            assert np.all(out.weights >= 0)
            assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestMatrixPredicates:
    def test_identity_is_deterministic_and_uniform(self):
        m = StochMatrix(np.eye(3))
        assert is_deterministic(m)
        assert is_uniform_matrix(m)

    def test_constant_function(self):
        m = StochMatrix([[1, 0], [1, 0]])
        assert is_deterministic(m)
        assert not is_uniform_matrix(m)  # column sums 2 and 0

    def test_half_matrix(self):
        m = StochMatrix([[0.5, 0.5], [0, 1]])
        assert not is_deterministic(m)
        m2 = StochMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert is_uniform_matrix(m2)

    def test_entropy_directions(self, rng):
        # deterministic maps lose entropy, uniform maps gain it
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = Dist(rng.dirichlet(np.ones(n)))
            d = random_deterministic(rng, n, int(rng.integers(1, n + 1)))
            assert shannon_entropy(apply(p, d)) <= shannon_entropy(p) + 1e-10
            u = random_uniform_matrix(rng, n)
            assert shannon_entropy(apply(p, u)) >= shannon_entropy(p) - 1e-10


class TestSimplexGrid:
    def test_rows_are_the_points_built_one_at_a_time(self):
        from itertools import combinations_with_replacement, pairwise

        for length, step in [(1, 0.5), (2, 0.05), (4, 0.05), (5, 0.1)]:
            units = round(1 / step)
            grid = simplex_grid(length, step)
            assert not grid.flags.writeable
            points = [
                Dist(np.array([b - a for a, b in pairwise((0, *cuts, units))]) * step)
                for cuts in combinations_with_replacement(range(units + 1), length - 1)
            ]
            assert grid.shape == (len(points), length)
            assert grid.tobytes() == np.array([p.weights for p in points]).tobytes()

    def test_counts(self):
        assert len(simplex_grid(2, 0.05)) == 21
        assert len(simplex_grid(3, 0.05)) == 231

    def test_bad_step(self):
        with pytest.raises(InvariantViolation):
            simplex_grid(2, 0.3)

    @pytest.mark.parametrize("length", [0, -1])
    def test_rejects_length_below_one(self, length):
        with pytest.raises(prob.GridSizeError):
            simplex_grid(length, 0.25)

    def test_caps_point_count_before_building(self, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("grid points were built before the size check")

        monkeypatch.setattr(prob, "GRID_POINTS_CAP", 21)
        assert len(simplex_grid(2, 0.05)) == 21
        monkeypatch.setattr(prob, "combinations_with_replacement", no_points)
        with pytest.raises(prob.GridSizeError):
            simplex_grid(2, 1 / 21)
        monkeypatch.undo()
        monkeypatch.setattr(prob, "combinations_with_replacement", no_points)
        with pytest.raises(prob.GridSizeError):
            simplex_grid(9, 0.01)  # about 4e11 points


class TestExtValueJson:
    def test_round_trip(self):
        assert ext_to_json(INF) == "inf"
        assert json.loads(json.dumps(ext_to_json(1.5))) == 1.5


@given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8))
def test_entropy_bounds_hold(ws):
    p = normalized(ws)
    h = shannon_entropy(p)
    assert 0.0 <= h <= math.log2(len(p)) + 1e-9


@given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=8))
def test_everything_majorizes_uniform(ws):
    p = normalized(ws)
    assert majorizes(p, Dist.uniform(len(p)))


@given(
    st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6),
)
def test_majorization_orders_entropy(ws, vs):
    # padding with zeros changes neither entropy, so Schur concavity holds
    # across lengths as well
    n = max(len(ws), len(vs))
    p, q = (normalized(w + [0.0] * (n - len(w))) for w in (ws, vs))
    if majorizes(p, q):
        assert shannon_entropy(p) <= shannon_entropy(q) + 1e-9
