import numpy as np
import pytest

from brute_force import check_monotone
from kanext.pcat import (
    CONTRAVARIANT,
    COVARIANT,
    Decision,
    MonotoneSpec,
    OracleSoundnessError,
    ReachabilityOracle,
    ResourceRef,
    ext_leq,
    preorder_collapse,
)
from kanext.prob import (
    INF,
    Dist,
    random_uniform_matrix,
    shannon_entropy,
)
from kanext.theories import RAND_DETMN, RAND_UNIFORM, default_registry
from maps import apply, random_deterministic

REGISTRY = default_registry()


def ref(theory, weights):
    return ResourceRef(theory, Dist(weights))


class TestExtLeq:
    def test_infinity_is_top(self):
        assert ext_leq(5.0, INF)
        assert ext_leq(INF, INF)
        assert not ext_leq(INF, 5.0)

    def test_slack(self):
        assert ext_leq(1.0 + 1e-10, 1.0, 1e-9)
        assert not ext_leq(1.1, 1.0, 1e-9)


class TestPreorderCollapse:
    def test_single_object(self):
        rel = preorder_collapse(REGISTRY.oracle(RAND_UNIFORM), [ref(RAND_UNIFORM, [1.0])])
        assert rel.tolist() == [[True]]

    def test_two_object_chain(self):
        objs = [ref(RAND_UNIFORM, [0.7, 0.3]), ref(RAND_UNIFORM, [0.5, 0.5])]
        rel = preorder_collapse(REGISTRY.oracle(RAND_UNIFORM), objs)
        assert rel.tolist() == [[True, True], [False, True]]

    def test_total_chain_ordered_by_nonuniformity(self):
        objs = [
            ref(RAND_UNIFORM, [1.0, 0.0]),
            ref(RAND_UNIFORM, [0.5, 0.5]),
            ref(RAND_UNIFORM, [0.75, 0.25]),
        ]
        rel = preorder_collapse(REGISTRY.oracle(RAND_UNIFORM), objs)
        # point mass reaches everything; uniform reaches only itself
        assert rel[0].tolist() == [True, True, True]
        assert rel[1].tolist() == [False, True, False]
        assert rel[2].tolist() == [False, True, True]

    def test_intransitive_oracle_names_the_triple(self):
        rel = np.array([
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ])

        def decide(a, b):
            return Decision(bool(rel[a.payload, b.payload]))

        oracle = ReachabilityOracle("fake", decide, exact=True)
        objs = [ResourceRef("fake", i) for i in range(3)]
        with pytest.raises(OracleSoundnessError, match="0 -> 1 -> 2"):
            preorder_collapse(oracle, objs)

    def test_requires_exact_oracle(self):
        oracle = ReachabilityOracle("fake", lambda a, b: Decision(True), exact=False)
        with pytest.raises(ValueError):
            preorder_collapse(oracle, [ResourceRef("fake", 0)])

    def test_rejects_inexact_decisions(self):
        oracle = ReachabilityOracle(
            "fake", lambda a, b: Decision(True, exact=False), exact=True
        )
        with pytest.raises(ValueError):
            preorder_collapse(oracle, [ResourceRef("fake", 0)])

    def test_relation_is_read_only(self):
        objs = [ref(RAND_UNIFORM, [0.7, 0.3]), ref(RAND_UNIFORM, [0.5, 0.5])]
        rel = preorder_collapse(REGISTRY.oracle(RAND_UNIFORM), objs)
        assert rel.dtype == bool
        with pytest.raises(ValueError):
            rel[1, 0] = True


def shannon_mono(variance):
    return MonotoneSpec("shannon", lambda r: shannon_entropy(r.payload), variance)


def reachable_pairs(rng, theory, make_matrix, count=200):
    pairs = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        p = Dist(rng.dirichlet(np.ones(n)))
        q = apply(p, make_matrix(rng, n))
        pairs.append((ResourceRef(theory, p), ResourceRef(theory, q)))
    return pairs


class TestCheckMonotone:
    def test_shannon_contravariant_under_deterministic_maps(self, rng):
        pairs = reachable_pairs(
            rng,
            RAND_DETMN,
            lambda r, n: random_deterministic(r, n, int(r.integers(1, n + 1))),
        )
        violations = check_monotone(
            REGISTRY.oracle(RAND_DETMN), shannon_mono(CONTRAVARIANT), pairs
        )
        assert violations == []

    def test_shannon_covariant_under_uniform_maps(self, rng):
        pairs = reachable_pairs(rng, RAND_UNIFORM, random_uniform_matrix)
        violations = check_monotone(
            REGISTRY.oracle(RAND_UNIFORM), shannon_mono(COVARIANT), pairs
        )
        assert violations == []

    def test_negated_shannon_violates_every_strict_pair(self, rng):
        negated = MonotoneSpec(
            "negated", lambda r: -shannon_entropy(r.payload), CONTRAVARIANT
        )
        pairs = reachable_pairs(
            rng, RAND_DETMN, lambda r, n: random_deterministic(r, n, 2), count=50
        )
        strict = [
            (a, b)
            for a, b in pairs
            if shannon_entropy(a.payload) > shannon_entropy(b.payload) + 1e-9
        ]
        violations = check_monotone(
            REGISTRY.oracle(RAND_DETMN), negated, strict
        )
        assert len(violations) == len(strict) > 0

    def test_skips_unreachable_pairs(self):
        pairs = [(ref(RAND_UNIFORM, [0.5, 0.5]), ref(RAND_UNIFORM, [0.7, 0.3]))]
        violations = check_monotone(
            REGISTRY.oracle(RAND_UNIFORM), shannon_mono(COVARIANT), pairs
        )
        assert violations == []
