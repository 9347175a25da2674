import sys

import numpy as np
import pytest

from conftest import bell_state, grid_dists, product_state
from kanext import lp
from kanext.kan import ExtensionProblem, extension
from kanext.lp import SizeLimitError, exists_uniform_map
from kanext.pcat import COVARIANT, ResourceRef
from kanext.prob import (
    Dist,
    StochMatrix,
    random_stochastic,
    random_uniform_matrix,
)
from kanext.quantum import (
    DensityMatrix,
    embed_classical,
    random_density,
    random_unitary,
)
from kanext.theories import (
    CDISTINGUISH,
    DISTINGUISH_RESTRICTED,
    PUREBIP_LOCC,
    QRAND_QUNIFORM,
    RAND_DETMN,
    RAND_UNIFORM,
    classical_to_quantum_functor,
    classical_to_quantum_pair_functor,
    default_registry,
    distinguish_restricted_oracle,
    distinguish_restricted_witness,
    make_functor,
    make_monotone,
    qrand_quniform_oracle,
    rand_detmn_oracle,
    rand_uniform_oracle,
)
from maps import (
    apply,
    apply_channel,
    embed_stochastic,
    is_uniform_matrix,
    maximally_mixed,
    stochastic_image_is_free,
)

REGISTRY = default_registry()


class TestRegistry:
    def test_all_theory_ids_present(self):
        for tid, kind in [
            (RAND_DETMN, "dist"),
            (RAND_UNIFORM, "dist"),
            (QRAND_QUNIFORM, "density"),
            (CDISTINGUISH, "dist_pair"),
            (DISTINGUISH_RESTRICTED, "density_pair"),
            (PUREBIP_LOCC, "pure"),
        ]:
            entry = REGISTRY.entry(tid)
            assert entry.kind == kind
            assert entry.oracle.theory_id == tid

    def test_unknown_theory(self):
        with pytest.raises(KeyError, match="unknown theory"):
            REGISTRY.entry("nope")

    def test_oracles_reject_foreign_objects(self):
        oracle = REGISTRY.oracle(RAND_UNIFORM)
        good = ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5]))
        bad = ResourceRef(RAND_DETMN, Dist([0.5, 0.5]))
        with pytest.raises(ValueError):
            oracle.decide(good, bad)

    def test_exactness_flags(self):
        assert REGISTRY.entry(RAND_UNIFORM).oracle.exact
        assert not REGISTRY.entry(DISTINGUISH_RESTRICTED).oracle.exact


class TestRandDetmnOracle:
    def test_merge_reachable(self):
        assert rand_detmn_oracle(Dist([0.3, 0.3, 0.4]), Dist([1.0])).reachable

    def test_split_unreachable(self):
        assert not rand_detmn_oracle(Dist([0.5, 0.5]), Dist([0.7, 0.3])).reachable

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            rand_detmn_oracle(Dist.uniform(13), Dist([1.0]))


class TestRandUniformOracle:
    def test_spec_examples(self):
        p = Dist([0.7, 0.3])
        assert rand_uniform_oracle(p, p).reachable
        assert rand_uniform_oracle(p, Dist([0.5, 0.5])).reachable
        assert not rand_uniform_oracle(Dist([0.5, 0.5]), p).reachable

    def test_unequal_lengths_decided_in_closed_form(self):
        p, q = Dist([0.5, 0.5]), Dist([1.0])
        d = rand_uniform_oracle(p, q)
        assert d.reachable
        assert d.witness is None
        assert d.exact
        # the LP builds the witness that reach reports
        witness = REGISTRY.entry(RAND_UNIFORM).witness(p, q)
        assert isinstance(witness, StochMatrix)
        assert is_uniform_matrix(witness)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_lp_on_full_grid(self, n):
        grid = grid_dists(n, 0.1)
        for p in grid:
            for q in grid:
                assert (
                    rand_uniform_oracle(p, q).reachable
                    == (exists_uniform_map(p, q) is not None)
                )


class TestQrandQuniformOracle:
    def test_reflexive(self, rng):
        rho = random_density(rng, 3)
        assert qrand_quniform_oracle(rho, rho).reachable

    def test_pure_reaches_mixed(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        mixed = maximally_mixed(2)
        assert qrand_quniform_oracle(pure, mixed).reachable
        assert not qrand_quniform_oracle(mixed, pure).reachable

    def test_basis_independent(self, rng):
        u = random_unitary(rng, 3)
        rho = random_density(rng, 3)
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert qrand_quniform_oracle(rho, rotated).reachable
        assert qrand_quniform_oracle(rotated, rho).reachable

    def test_matches_classical_oracle_on_diagonals(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            p = Dist(rng.dirichlet(np.ones(n)))
            q = Dist(rng.dirichlet(np.ones(n)))
            classical = rand_uniform_oracle(p, q).reachable
            quantum = qrand_quniform_oracle(
                embed_classical(p), embed_classical(q)
            ).reachable
            assert classical == quantum

    def test_cross_dimension_flagged_inexact(self):
        rho = random_density(np.random.default_rng(0), 2)
        one = DensityMatrix(np.eye(1).astype(complex))
        d = qrand_quniform_oracle(rho, one)
        assert d.reachable  # tracing out everything is unital here
        assert not d.exact
        d2 = qrand_quniform_oracle(one, maximally_mixed(2))
        assert d2.reachable
        d3 = qrand_quniform_oracle(one, DensityMatrix(np.diag([0.7, 0.3]).astype(complex)))
        assert not d3.reachable


class TestCdistinguishOracle:
    def test_identity(self):
        pair = (Dist([0.9, 0.1]), Dist([0.5, 0.5]))
        assert REGISTRY.oracle(CDISTINGUISH).decide(
            ResourceRef(CDISTINGUISH, pair), ResourceRef(CDISTINGUISH, pair)
        ).reachable

    def test_processing_images_reachable(self, rng):
        for _ in range(20):
            p = Dist(rng.dirichlet(np.ones(3)))
            q = Dist(rng.dirichlet(np.ones(3)))
            m = random_stochastic(rng, 3, 2)
            src = ResourceRef(CDISTINGUISH, (p, q))
            dst = ResourceRef(CDISTINGUISH, (apply(p, m), apply(q, m)))
            assert REGISTRY.oracle(CDISTINGUISH).decide(src, dst).reachable


class TestDistinguishRestrictedOracle:
    def test_identity_pair(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        d = distinguish_restricted_oracle((rho, sigma), (rho, sigma))
        assert d.reachable and d.exact

    def test_diagonal_pairs_decided_in_closed_form(self, rng):
        p = Dist(rng.dirichlet(np.ones(3)))
        q = Dist(rng.dirichlet(np.ones(3)))
        m = random_stochastic(rng, 3, 2)
        src = (embed_classical(p), embed_classical(q))
        dst = (embed_classical(apply(p, m)), embed_classical(apply(q, m)))
        d = distinguish_restricted_oracle(src, dst)
        assert d.reachable and d.exact
        assert d.witness is None
        witness = distinguish_restricted_witness(src, dst)
        assert isinstance(witness, StochMatrix)
        assert witness.entries.shape == (3, 2)

    def test_rotated_commuting_pairs(self, rng):
        p = Dist([0.8, 0.2])
        q = Dist([0.4, 0.6])
        u = random_unitary(rng, 2)
        src = (
            DensityMatrix(u @ np.diag(p.weights) @ u.conj().T),
            DensityMatrix(u @ np.diag(q.weights) @ u.conj().T),
        )
        m = random_uniform_matrix(rng, 2)
        dst = (embed_classical(apply(p, m)), embed_classical(apply(q, m)))
        assert distinguish_restricted_oracle(src, dst).reachable

    def test_noncommuting_pair_is_not_certified(self):
        rho = DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
        sigma = DensityMatrix(np.full((2, 2), 0.5))
        d = distinguish_restricted_oracle(
            (rho, sigma), (maximally_mixed(2), maximally_mixed(2))
        )
        assert not d.reachable
        assert not d.exact  # a negative here is only "no witness found"


class TestClosedFormSweeps:
    @pytest.mark.parametrize(
        "theory", [RAND_UNIFORM, CDISTINGUISH, DISTINGUISH_RESTRICTED]
    )
    def test_extend_solves_no_lp(self, monkeypatch, rng, theory):
        calls = []

        def counting(a, b):
            calls.append(a.shape)
            return original(a, b)

        # patch every module binding of the simplex, so that one-system
        # solves and batched masks are both counted
        original = lp._phase1
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kanext" and hasattr(module, "_phase1"):
                monkeypatch.setattr(module, "_phase1", counting)
        if theory == RAND_UNIFORM:
            y = Dist(rng.dirichlet(np.ones(3)))
            candidates = grid_dists(4, 0.25)
            functor, monotone = make_functor("identity", theory), "shannon"
        else:
            x0 = (Dist(rng.dirichlet(np.ones(4))), Dist(rng.dirichlet(np.ones(4))))
            m = random_stochastic(rng, 4, 3)
            y = (apply(x0[0], m), apply(x0[1], m))
            candidates = [x0] + [
                (Dist(rng.dirichlet(np.ones(4))), Dist(rng.dirichlet(np.ones(4))))
                for _ in range(10)
            ]
            monotone = "kl"
            if theory == CDISTINGUISH:
                functor = make_functor("identity", theory)
            else:
                functor = classical_to_quantum_pair_functor()
                y = (embed_classical(y[0]), embed_classical(y[1]))
        problem = ExtensionProblem(
            make_monotone(monotone, COVARIANT),
            functor,
            REGISTRY.oracle(theory),
            tuple(ResourceRef(functor.source_theory, c) for c in candidates),
        )
        # one sweep decides y -> K(x) and K(x) -> y for every candidate
        lo, hi = extension(problem, ResourceRef(theory, y))
        assert lo.witness is not None or hi.witness is not None
        assert calls == []


class TestPurebipOracle:
    def test_examples(self):
        oracle = REGISTRY.oracle(PUREBIP_LOCC)
        bell = ResourceRef(PUREBIP_LOCC, bell_state())
        prod = ResourceRef(PUREBIP_LOCC, product_state())
        assert oracle.decide(bell, bell).reachable
        assert oracle.decide(bell, prod).reachable
        assert not oracle.decide(prod, bell).reachable


class TestClassicalToQuantumFunctor:
    def test_object_map_examples(self):
        functor = classical_to_quantum_functor()
        ref = ResourceRef(RAND_UNIFORM, Dist([0.2, 0.8]))
        image = functor.map_object(ref)
        assert image.theory_id == QRAND_QUNIFORM
        assert np.allclose(image.payload.entries, np.diag([0.2, 0.8]))

    def test_pair_version(self):
        functor = classical_to_quantum_pair_functor()
        ref = ResourceRef(CDISTINGUISH, (Dist([0.5, 0.5]), Dist([1.0, 0.0])))
        image = functor.map_object(ref)
        assert image.theory_id == DISTINGUISH_RESTRICTED
        assert np.allclose(image.payload[0].entries, np.diag([0.5, 0.5]))
        assert np.allclose(image.payload[1].entries, np.diag([1.0, 0.0]))

    def test_preserves_free_transformations(self, rng):
        # pCat functor law on a sample of free arrows: uniform matrices map
        # to unital channels, and the object map commutes with the action
        for _ in range(100):
            n = int(rng.integers(2, 5))
            p = Dist(rng.dirichlet(np.ones(n)))
            u = random_uniform_matrix(rng, n)
            assert stochastic_image_is_free(u)
            lhs = embed_classical(apply(p, u))
            rhs = apply_channel(embed_stochastic(u), embed_classical(p))
            assert np.max(np.abs(lhs.entries - rhs.entries)) <= 1e-9

    def test_non_uniform_matrices_map_outside_the_free_class(self, rng):
        hits = 0
        for _ in range(20):
            m = random_stochastic(rng, 3, 3)
            if not is_uniform_matrix(m):
                hits += 1
                assert not stochastic_image_is_free(m)
        assert hits > 0


class TestFactories:
    def test_make_monotone_known_ids(self):
        mono = make_monotone("shannon", "covariant")
        assert mono.evaluate(ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5]))) == 1.0
        kl = make_monotone("kl", "contravariant")
        pair = (Dist([1.0, 0.0]), Dist([0.5, 0.5]))
        assert kl.evaluate(ResourceRef(CDISTINGUISH, pair)) == pytest.approx(1.0)
        schmidt = make_monotone("schmidt", "contravariant")
        assert schmidt.evaluate(ResourceRef(PUREBIP_LOCC, bell_state())) == 2.0

    def test_unknown_ids(self):
        with pytest.raises(KeyError):
            make_monotone("nope", "covariant")
        with pytest.raises(KeyError):
            make_functor("nope")

    def test_identity_functor_requires_theory(self):
        with pytest.raises(ValueError):
            make_functor("identity")
