import numpy as np
import pytest

from brute_force import (
    GridSpec,
    bf_maximal_extension,
    bf_minimal_extension,
    bf_uniform_map_search,
    grid_distributions,
    schmidt_number_upper_bound,
)
from conftest import bell_state, ghz3_state, random_pure
from kanext.bf_oracle import (
    ToyTheory,
    random_preorder,
    random_toy_problem,
)
from kanext.kan import extension
from kanext.prob import Dist, InvariantViolation
from kanext.quantum import DensityMatrix, schmidt_rank
from maps import apply, is_uniform_matrix, majorizes, maximally_mixed, projector


class TestGridSpec:
    def test_rejects_non_dividing_step(self):
        with pytest.raises(InvariantViolation):
            GridSpec(0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvariantViolation):
            GridSpec(1.5)

    def test_length_cap(self):
        with pytest.raises(InvariantViolation):
            grid_distributions(GridSpec(0.5, max_length=3), 4)


class TestBfExtensions:
    def test_agrees_with_engine_on_random_toys(self):
        for i in range(100):
            problem, objects, _ = random_toy_problem(np.random.default_rng(500 + i))
            for y in objects:
                lo, hi = extension(problem, y)
                assert lo.value == bf_minimal_extension(problem, y)
                assert hi.value == bf_maximal_extension(problem, y)

    def test_empty_set_constants(self):
        theory = ToyTheory(np.eye(2, dtype=bool))
        problem, objects, _ = random_toy_problem(np.random.default_rng(0))
        empty = problem.__class__(
            problem.monotone,
            problem.functor,
            theory.oracle(),
            (),
            candidates_complete=True,
        )
        y = theory.objects[0]
        if problem.monotone.variance == "contravariant":
            assert bf_minimal_extension(empty, y) == 0.0
            assert bf_maximal_extension(empty, y) == float("inf")
        else:
            assert bf_minimal_extension(empty, y) == float("inf")
            assert bf_maximal_extension(empty, y) == 0.0

    def test_singleton_candidate(self):
        theory = ToyTheory(np.eye(1, dtype=bool))
        problem, objects, grid = random_toy_problem(np.random.default_rng(3))
        y = objects[0]
        lone = problem.candidates[:1]
        single = problem.__class__(
            problem.monotone, problem.functor, problem.target_oracle, lone
        )
        value = problem.monotone.evaluate(lone[0])
        image = problem.functor.map_object(lone[0])
        if problem.target_oracle.decide(y, image).reachable:
            assert bf_minimal_extension(single, y) == value
        else:
            expected = (
                float("inf")
                if problem.monotone.variance == "covariant"
                else 0.0
            )
            assert bf_minimal_extension(single, y) == expected


class TestRandomPreorder:
    def test_reflexive_and_transitive(self, rng):
        for _ in range(20):
            rel = random_preorder(rng, int(rng.integers(2, 8)))
            assert np.all(np.diag(rel))
            closure = rel @ rel
            assert not np.any(closure & ~rel)


class TestBfUniformMapSearch:
    def test_finds_witness_toward_uniform(self):
        witness = bf_uniform_map_search(
            Dist([0.75, 0.25]), Dist([0.5, 0.5]), GridSpec(0.25)
        )
        assert witness is not None
        assert is_uniform_matrix(witness)
        assert np.allclose(apply(Dist([0.75, 0.25]), witness).weights, [0.5, 0.5])

    def test_misses_where_majorization_fails(self):
        assert (
            bf_uniform_map_search(Dist([0.5, 0.5]), Dist([0.75, 0.25]), GridSpec(0.25))
            is None
        )

    def test_agrees_with_majorization_on_coarse_grid(self):
        grid = grid_distributions(GridSpec(0.25), 2)
        for p in grid:
            for q in grid:
                witness = bf_uniform_map_search(p, q, GridSpec(0.25))
                if witness is not None:
                    assert majorizes(p, q)


class TestSchmidtNumberUpperBound:
    def test_bell_projector(self):
        rho = projector(bell_state())
        assert schmidt_number_upper_bound(rho, (2, 2), trials=10, seed=1) == 2

    def test_orthogonal_product_mixture(self):
        # |00><00| mixed with |11><11|: the eigendecomposition is the defining
        # product decomposition
        rho = DensityMatrix(np.diag([0.6, 0, 0, 0.4]).astype(complex))
        assert schmidt_number_upper_bound(rho, (2, 2), trials=10, seed=2) == 1

    def test_maximally_mixed_two_qubits(self):
        rho = maximally_mixed(4)
        assert schmidt_number_upper_bound(rho, (2, 2), trials=20, seed=3) <= 2

    def test_matches_rank_on_pure_states(self, rng):
        for dims in ((2, 2), (2, 3), (3, 3)):
            psi = random_pure(rng, dims)
            bound = schmidt_number_upper_bound(projector(psi), dims, trials=5, seed=4)
            assert bound == schmidt_rank(psi)

    def test_never_below_rank_on_pure_states(self, rng):
        for _ in range(10):
            psi = random_pure(rng, (2, 2))
            bound = schmidt_number_upper_bound(projector(psi), (2, 2), trials=3, seed=5)
            assert bound >= schmidt_rank(psi)

    def test_ghz_three_levels(self):
        rho = projector(ghz3_state())
        assert schmidt_number_upper_bound(rho, (3, 3), trials=5, seed=6) == 3

    def test_dimension_cap(self):
        with pytest.raises(InvariantViolation):
            schmidt_number_upper_bound(
                maximally_mixed(10), (5, 2), trials=1, seed=0
            )
