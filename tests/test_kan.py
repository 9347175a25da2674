import dataclasses
from collections import Counter

import numpy as np
import pytest

from brute_force import bf_beaten_extensions, bf_maximal_extension, bf_minimal_extension
from conftest import bell_state, grid_dists, product_state, sparse_dist
from kanext import kan, quantum, theories
from kanext.bf_oracle import random_toy_problem
from kanext.kan import (
    ExtensionProblem,
    FunctorMap,
    extension,
    verify_monotonicity,
    verify_optimality,
    verify_reduction,
)
from kanext.pcat import (
    CONTRAVARIANT,
    COVARIANT,
    Decision,
    DistRows,
    MonotoneSpec,
    OracleSoundnessError,
    ReachabilityOracle,
    ResourceRef,
)
from kanext.prob import (
    INF,
    Dist,
    dist_rows,
    random_uniform_matrix,
    relative_majorization_mask,
    shannon_entropy,
    simplex_grid,
)
from kanext.quantum import (
    DensityMatrix,
    eig_hermitian,
    embed_classical,
    random_density,
    random_unitary,
    spectral_entropy,
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
    identity_functor,
    make_monotone,
)
from maps import apply

REGISTRY = default_registry()


def shannon_spec(variance):
    return MonotoneSpec("shannon", lambda r: shannon_entropy(r.payload), variance)


def classical_refs(dists):
    return tuple(ResourceRef(RAND_UNIFORM, d) for d in dists)


def shannon_problem(variance, candidates, complete=False):
    return ExtensionProblem(
        shannon_spec(variance),
        identity_functor(RAND_UNIFORM),
        REGISTRY.oracle(RAND_UNIFORM),
        classical_refs(candidates),
        candidates_complete=complete,
    )


def embedding_problem(candidates, complete=False, variance=COVARIANT):
    return ExtensionProblem(
        shannon_spec(variance),
        classical_to_quantum_functor(),
        REGISTRY.oracle(QRAND_QUNIFORM),
        classical_refs(candidates),
        candidates_complete=complete,
    )


def grid_rows(length, step):
    """The step grid as one weight-matrix family of rand_uniform objects."""
    return DistRows(RAND_UNIFORM, (simplex_grid(length, step),))


def pair_rows(pairs):
    """Distribution pairs as one weight-matrix family of cdistinguish objects."""
    return DistRows(CDISTINGUISH, tuple(
        dist_rows([pair[i].weights for pair in pairs]) for i in (0, 1)
    ))


def witness_index(prob, result):
    """The candidate position of a result's witness, or None.  A tuple
    family holds the witness itself; a ``DistRows`` builds it anew, so it is
    found as the first row with its weights."""
    if result.witness is None:
        return None
    x = result.witness
    if not isinstance(prob.candidates, DistRows):
        return next(i for i, c in enumerate(prob.candidates) if c is x)
    parts = x.payload if isinstance(x.payload, tuple) else (x.payload,)
    rows = zip(*prob.candidates.weights)
    return next(
        i for i, row in enumerate(rows)
        if all(np.array_equal(r, d.weights) for r, d in zip(row, parts))
    )


def per_pair(prob):
    """The same problem with the functor's key map stripped, so that the
    sweep falls back to one oracle decision per pair."""
    return dataclasses.replace(prob, functor=dataclasses.replace(prob.functor, map_key=None))


def counting_decide(prob):
    """The same problem with every oracle decision recorded in a list."""
    calls = []
    oracle = prob.target_oracle

    def decide(a, b):
        calls.append((a, b))
        return oracle.decide(a, b)

    counted = dataclasses.replace(oracle, decide=decide)
    return dataclasses.replace(prob, target_oracle=counted), calls


def pair_family(rng, count, n, k):
    """A length-k pair y and ``count`` length-n pairs around it: x0, which
    reaches y, images of y under random stochastic maps, and sparse or
    dense draws, so both directions see both verdicts."""
    x0 = (sparse_dist(rng, n), rng.dirichlet(np.ones(n)))
    m0 = rng.dirichlet(np.ones(k), size=n)
    y = (x0[0] @ m0, x0[1] @ m0)
    pairs = [x0]
    while len(pairs) < count:
        kind = len(pairs) % 3
        if kind == 0:
            m = rng.dirichlet(np.ones(n), size=k)
            pairs.append((y[0] @ m, y[1] @ m))
        else:
            draw = sparse_dist if kind == 1 else lambda r, m: r.dirichlet(np.ones(m))
            pairs.append((draw(rng, n), draw(rng, n)))
    return (Dist(y[0]), Dist(y[1])), [(Dist(p), Dist(q)) for p, q in pairs]


def kl_problem(functor, theory_id, pairs):
    """Complete, so that each side's exact flag shows its decisions' flags."""
    return ExtensionProblem(
        make_monotone("kl", COVARIANT),
        functor,
        REGISTRY.oracle(theory_id),
        tuple(ResourceRef(CDISTINGUISH, pair) for pair in pairs),
        candidates_complete=True,
    )


def embedded_pair(pair, unitary=None):
    """(diag(p), diag(q)), conjugated by ``unitary`` where given."""
    states = [np.diag(d.weights).astype(complex) for d in pair]
    if unitary is not None:
        states = [unitary @ s @ unitary.conj().T for s in states]
    return ResourceRef(DISTINGUISH_RESTRICTED, tuple(DensityMatrix(s) for s in states))


class TestEmptyDiagramConstants:
    """With no admissible candidate the extension is the empty limit/colimit."""

    def test_no_candidates_at_all(self):
        y = ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5]))
        for variance, lo, hi in (
            (COVARIANT, INF, 0.0),
            (CONTRAVARIANT, 0.0, INF),
        ):
            prob = shannon_problem(variance, ())
            minimal, maximal = extension(prob, y)
            assert minimal.value == lo
            assert maximal.value == hi

    def test_all_candidates_unreachable(self):
        never = ReachabilityOracle("null", lambda a, b: Decision(False), exact=True)
        prob = ExtensionProblem(
            shannon_spec(CONTRAVARIANT),
            identity_functor("null"),
            never,
            (ResourceRef("null", Dist([1.0, 0.0])),),
        )
        y = ResourceRef("null", Dist([0.5, 0.5]))
        lo, hi = extension(prob, y)
        assert lo.value == 0.0
        assert hi.value == INF
        assert lo.witness is None


class TestClassicalExtensions:
    def test_contravariant_minimal_denies_nonuniform_candidates(self):
        # from uniform Y nothing nonuniform is reachable, so sup over an
        # empty set collapses to the initial object 0
        prob = shannon_problem(CONTRAVARIANT, [Dist([1.0, 0.0]), Dist([0.75, 0.25])])
        y = ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5]))
        res = extension(prob, y)[0]
        assert res.value == 0.0
        assert res.examined == 2

    def test_covariant_minimal_picks_least_reachable_value(self):
        prob = shannon_problem(
            COVARIANT, [Dist([1.0, 0.0]), Dist([0.75, 0.25]), Dist([0.5, 0.5])]
        )
        y = ResourceRef(RAND_UNIFORM, Dist([0.75, 0.25]))
        res = extension(prob, y)[0]
        # reachable from y: (0.75, 0.25) itself and uniform; inf of entropies
        assert res.value == pytest.approx(shannon_entropy(Dist([0.75, 0.25])))
        assert res.witness.payload.weights.tolist() == [0.75, 0.25]

    def test_witness_is_first_attaining_candidate(self):
        twin_a = Dist([0.7, 0.3])
        twin_b = Dist([0.3, 0.7])
        prob = shannon_problem(COVARIANT, [twin_a, twin_b])
        y = ResourceRef(RAND_UNIFORM, Dist([0.7, 0.3]))
        res = extension(prob, y)[0]
        assert res.witness.payload is twin_a


class TestQuantumExtensions:
    def test_shannon_extension_on_grid_candidates(self):
        prob = embedding_problem(grid_dists(2, 0.05))
        y = ResourceRef(QRAND_QUNIFORM, embed_classical(Dist([0.5, 0.5])))
        lo, hi = extension(prob, y)
        assert lo.value == pytest.approx(1.0, abs=1e-12)
        assert hi.value == pytest.approx(1.0, abs=1e-12)
        assert not lo.exact  # grid candidates claim no completeness

    def test_spectral_candidates_are_exact(self, rng):
        rho = random_density(rng, 3)
        spectrum = eig_hermitian(rho).eigenvalues
        prob = embedding_problem([spectrum], complete=True)
        y = ResourceRef(QRAND_QUNIFORM, rho)
        lo, hi = extension(prob, y)
        assert lo.exact and hi.exact
        assert lo.value == pytest.approx(spectral_entropy(rho), abs=1e-9)
        assert hi.value == pytest.approx(spectral_entropy(rho), abs=1e-9)

    def test_nonuniform_target_on_fine_grid(self):
        prob = embedding_problem(grid_dists(2, 0.01))
        y = ResourceRef(QRAND_QUNIFORM, embed_classical(Dist([0.9, 0.1])))
        hi = extension(prob, y)[1]
        assert hi.value == pytest.approx(shannon_entropy(Dist([0.9, 0.1])), abs=1e-9)

    def test_schmidt_extension_at_bell_target(self):
        schmidt = make_monotone("schmidt", CONTRAVARIANT)
        prob = ExtensionProblem(
            schmidt,
            identity_functor(PUREBIP_LOCC),
            REGISTRY.oracle(PUREBIP_LOCC),
            (
                ResourceRef(PUREBIP_LOCC, product_state()),
                ResourceRef(PUREBIP_LOCC, bell_state()),
            ),
        )
        y = ResourceRef(PUREBIP_LOCC, bell_state())
        # only the Bell candidate reaches a Bell target, so both directions
        # see the singleton {2}
        lo, hi = extension(prob, y)
        assert hi.value == 2.0
        assert lo.value == 2.0


class TestExactnessFlag:
    def test_inexact_decisions_poison_the_result(self):
        shaky = ReachabilityOracle(
            "shaky", lambda a, b: Decision(True, exact=False), exact=False
        )
        prob = ExtensionProblem(
            shannon_spec(COVARIANT),
            identity_functor("shaky"),
            shaky,
            (ResourceRef("shaky", Dist([0.5, 0.5])),),
            candidates_complete=True,
        )
        res = extension(prob, ResourceRef("shaky", Dist([0.5, 0.5])))[0]
        assert not res.exact

    def test_incomplete_candidates_poison_the_result(self):
        prob = shannon_problem(COVARIANT, [Dist([0.5, 0.5])], complete=False)
        res = extension(prob, ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5])))[0]
        assert not res.exact


class TestSinglePass:
    def test_maps_each_candidate_once_and_values_it_at_most_once(self):
        mapped, valued = Counter(), Counter()

        def map_object(ref):
            mapped[ref.payload] += 1
            return ResourceRef("chain", ref.payload)

        def evaluate(ref):
            valued[ref.payload] += 1
            return float(ref.payload)

        # total order 0 -> 1 -> 2 -> 3: target 2 reaches the candidates above
        # it and is reached from those below, and candidate 2 both ways
        chain = ReachabilityOracle("chain", lambda a, b: Decision(a.payload <= b.payload))
        prob = ExtensionProblem(
            MonotoneSpec("index", evaluate, COVARIANT),
            FunctorMap("into_chain", "src", "chain", map_object),
            chain,
            tuple(ResourceRef("src", k) for k in range(4)),
        )
        lo, hi = extension(prob, ResourceRef("chain", 2))
        assert (lo.value, hi.value) == (2.0, 2.0)
        assert mapped == Counter(range(4))
        assert valued == Counter(range(4))

    def test_values_admissible_rows_once_without_a_row_evaluator(self, rng):
        valued = []

        def evaluate(ref):
            valued.append(ref.payload.weights.tobytes())
            return shannon_entropy(ref.payload)

        rows = dataclasses.replace(
            embedding_problem(()),
            monotone=make_monotone("shannon", COVARIANT),
            candidates=grid_rows(3, 0.1),
        )
        own = dataclasses.replace(rows, monotone=MonotoneSpec("shannon", evaluate, COVARIANT))
        assert rows.monotone.rows is not None and own.monotone.rows is None
        y = ResourceRef(QRAND_QUNIFORM, random_density(rng, 3))
        for a, b in zip(extension(own, y), extension(rows, y)):
            assert (a.value, witness_index(own, a)) == (b.value, witness_index(rows, b))
        # each candidate that some side admits, once, in candidate order
        spectrum, u = y.payload.spectrum.eigenvalues.weights, np.full(3, 1 / 3)
        grid = rows.candidates.weights[0]
        admitted = relative_majorization_mask(spectrum, u, grid, u)
        admitted |= relative_majorization_mask(grid, u, spectrum, u)
        assert valued == [grid[i].tobytes() for i in np.flatnonzero(admitted)]

    def test_decomposes_each_density_matrix_once(self, monkeypatch, rng):
        calls = Counter()

        def counting(rho):
            calls[id(rho)] += 1
            return original(rho)

        # patch every module binding, so that a direct caller is counted too
        original = quantum.eig_hermitian
        for module in (quantum, theories):
            monkeypatch.setattr(module, "eig_hermitian", counting, raising=False)
        candidates = grid_dists(3, 0.25)
        y = ResourceRef(QRAND_QUNIFORM, random_density(rng, 3))
        prob, decided = counting_decide(embedding_problem(candidates))
        extension(prob, y)
        # the keyed sweep decomposes the target alone and asks the oracle nothing
        assert sum(calls.values()) == 1
        assert calls[id(y.payload)] == 1
        assert decided == []
        # the per-pair fallback adds each candidate's image, once each
        extension(per_pair(prob), y)
        assert sum(calls.values()) == len(candidates) + 1
        assert calls[id(y.payload)] == 1
        assert len(decided) == 2 * len(candidates)

    def test_measures_the_target_pair_once(self, monkeypatch, rng):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        original = theories._common_eigenbasis
        monkeypatch.setattr(theories, "_common_eigenbasis", counting)
        y, pairs = pair_family(rng, 12, 4, 3)
        target = embedded_pair(y)
        prob, decided = counting_decide(
            kl_problem(classical_to_quantum_pair_functor(), DISTINGUISH_RESTRICTED, pairs)
        )
        extension(prob, target)
        # the keyed sweep finds the target's joint eigenbasis once and asks
        # the oracle nothing
        assert len(calls) == 1
        assert calls[0][0] is target.payload[0].entries
        assert decided == []
        # each per-pair decision measures both pairs again
        extension(per_pair(prob), target)
        assert len(calls) == 1 + 4 * len(pairs)
        assert len(decided) == 2 * len(pairs)


class TestKeyedSweep:
    """The keyed sweep and the per-pair fallback agree on every field."""

    @staticmethod
    def check(prob, targets, keyed=True):
        variants = [
            dataclasses.replace(prob, monotone=dataclasses.replace(prob.monotone, variance=v))
            for v in (COVARIANT, CONTRAVARIANT)
        ]
        for variant in variants:
            fast, fast_calls = counting_decide(variant)
            slow, slow_calls = counting_decide(per_pair(variant))
            for y in targets:
                for a, b in zip(extension(fast, y), extension(slow, y)):
                    assert (a.value, a.exact, a.examined) == (b.value, b.exact, b.examined)
                    assert witness_index(prob, a) == witness_index(prob, b)
                    assert a.to_json() == b.to_json()
            assert len(slow_calls) == 2 * len(prob.candidates) * len(targets)
            assert len(fast_calls) == (0 if keyed else len(slow_calls))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_wishart_targets(self, rng, d):
        prob = embedding_problem(grid_dists(d, 0.1))
        targets = [ResourceRef(QRAND_QUNIFORM, random_density(rng, d)) for _ in range(6)]
        self.check(prob, targets)

    def test_embedded_grid_targets_tie_with_candidates(self, rng):
        grid = grid_dists(4, 0.25)
        prob = embedding_problem(grid)
        points = [grid[i].weights for i in rng.choice(len(grid), 8, replace=False)]
        # each point and a permutation of it sit among the candidates
        targets = [
            ResourceRef(QRAND_QUNIFORM, embed_classical(Dist(w)))
            for p in points
            for w in (p, rng.permutation(p))
        ]
        self.check(prob, targets)

    def test_identity_on_rand_uniform(self, rng):
        grid = grid_dists(3, 0.1)
        prob = shannon_problem(COVARIANT, grid)
        targets = [ResourceRef(RAND_UNIFORM, p) for p in grid[::7]]
        targets += [ResourceRef(RAND_UNIFORM, Dist(rng.dirichlet(np.ones(3)))) for _ in range(5)]
        self.check(prob, targets)

    def test_identity_on_qrand_quniform(self, rng):
        states = [random_density(rng, 3) for _ in range(20)]
        states += [embed_classical(p) for p in grid_dists(3, 0.25)]
        prob = ExtensionProblem(
            make_monotone("spectral_entropy", COVARIANT),
            identity_functor(QRAND_QUNIFORM),
            REGISTRY.oracle(QRAND_QUNIFORM),
            tuple(ResourceRef(QRAND_QUNIFORM, s) for s in states),
        )
        targets = [ResourceRef(QRAND_QUNIFORM, s) for s in states[::4]]
        self.check(prob, targets)

    def test_unequal_lengths_fall_back(self, rng):
        # one length-4 candidate among length-3 ones: no key matrix is built
        candidates = grid_dists(3, 0.25) + [Dist([0.4, 0.3, 0.2, 0.1])]
        prob = embedding_problem(candidates)
        targets = [ResourceRef(QRAND_QUNIFORM, random_density(rng, 4)) for _ in range(3)]
        self.check(prob, targets, keyed=False)

    def test_grid_into_shorter_rand_uniform_targets(self, rng):
        grid = grid_dists(4, 0.2)
        prob = shannon_problem(COVARIANT, grid, complete=True)
        targets = [ResourceRef(RAND_UNIFORM, p) for p in grid_dists(3, 0.25)]
        targets += [ResourceRef(RAND_UNIFORM, Dist(sparse_dist(rng, 3))) for _ in range(4)]
        # exact images of grid points under a uniform map from length 4 to 3
        m = np.vstack([np.eye(3), np.full(3, 1 / 3)])
        targets += [ResourceRef(RAND_UNIFORM, Dist(grid[i].weights @ m)) for i in (3, 30, 55)]
        self.check(prob, targets)

    def test_cdistinguish_under_identity(self, rng):
        for n, k in [(4, 3), (3, 3), (2, 4)]:
            y, pairs = pair_family(rng, 20, n, k)
            prob = kl_problem(identity_functor(CDISTINGUISH), CDISTINGUISH, pairs)
            targets = [ResourceRef(CDISTINGUISH, y)]
            targets += [ResourceRef(CDISTINGUISH, pair) for pair in pairs[::7] if len(pair[0]) == k]
            self.check(prob, targets)

    @pytest.mark.parametrize("n, k", [(4, 3), (3, 4), (3, 3)])
    def test_distinguish_restricted_under_the_pair_embedding(self, rng, n, k):
        y, pairs = pair_family(rng, 20, n, k)
        prob = kl_problem(classical_to_quantum_pair_functor(), DISTINGUISH_RESTRICTED, pairs)
        targets = [embedded_pair(y), embedded_pair(y, random_unitary(rng, k))]
        if n == k:
            # a candidate's own image hits the identity shortcut
            targets += [embedded_pair(pairs[i]) for i in (0, 5, 6)]
        self.check(prob, targets)

    def test_target_image_is_admitted_both_ways_as_the_witness_without_a_decision(self, rng):
        _, pairs = pair_family(rng, 10, 3, 3)
        prob = kl_problem(classical_to_quantum_pair_functor(), DISTINGUISH_RESTRICTED, pairs[4:5])
        prob, decided = counting_decide(prob)
        target = embedded_pair(pairs[4])
        # the target's key is written in the standard basis, so the one
        # candidate's image is the target itself
        assert prob.target_oracle.key(target).identity
        lo, hi = extension(prob, target)
        assert lo.witness is hi.witness is prob.candidates[0]
        assert decided == []

    def test_negatives_of_an_inexact_oracle_clear_the_exact_flags(self, rng):
        # the target itself (the identity, exact) and one pair admissible on
        # neither side: its two inexact negatives alone make both sides inexact
        y, pairs = pair_family(rng, 30, 3, 3)
        keys = [theories._ORDER_KEYS[CDISTINGUISH](pair) for pair in (y, *pairs)]
        target, rest = keys[0], keys[1:]
        apart = [
            pair for pair, key in zip(pairs, rest)
            if not relative_majorization_mask(target.p, target.q, key.p, key.q)
            and not relative_majorization_mask(key.p, key.q, target.p, target.q)
        ]
        functor = classical_to_quantum_pair_functor()
        prob = kl_problem(functor, DISTINGUISH_RESTRICTED, [y, apart[0]])
        lo, hi = extension(prob, embedded_pair(y))
        assert not lo.exact and not hi.exact
        self.check(prob, [embedded_pair(y)])

    def test_unital_channels_across_dimensions_run_keyed(self, rng):
        # spectrum keys decide equal dimensions only exactly: d = 4 targets
        # against length-3 candidates are decided by the keys, and flagged
        # inexact as the per-pair decisions are
        prob = embedding_problem(grid_dists(3, 0.25), complete=True)
        targets = [ResourceRef(QRAND_QUNIFORM, random_density(rng, 4)) for _ in range(3)]
        targets += [ResourceRef(QRAND_QUNIFORM, embed_classical(Dist([0.5, 0.5, 0.0, 0.0])))]
        self.check(prob, targets)
        for y in targets:
            assert not any(side.exact for side in extension(prob, y))

    def test_noncommuting_target_falls_back(self, rng):
        y, pairs = pair_family(rng, 12, 3, 3)
        prob = kl_problem(classical_to_quantum_pair_functor(), DISTINGUISH_RESTRICTED, pairs)
        rho, sigma = random_density(rng, 3), random_density(rng, 3)
        target = ResourceRef(DISTINGUISH_RESTRICTED, (rho, sigma))
        assert theories._common_eigenbasis(rho.entries, sigma.entries) is None
        self.check(prob, [target], keyed=False)

    def test_mixed_candidate_lengths_fall_back(self, rng):
        y, pairs = pair_family(rng, 12, 4, 3)
        _, shorter = pair_family(rng, 4, 3, 3)
        for functor, theory_id, target in [
            (identity_functor(CDISTINGUISH), CDISTINGUISH, ResourceRef(CDISTINGUISH, y)),
            (classical_to_quantum_pair_functor(), DISTINGUISH_RESTRICTED, embedded_pair(y)),
        ]:
            self.check(kl_problem(functor, theory_id, pairs + shorter), [target], keyed=False)


    # problems whose candidates are one weight matrix (pcat.DistRows)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_array_grid_into_wishart_targets(self, rng, d):
        rows = embedding_problem((), complete=False)
        rows = dataclasses.replace(rows, candidates=grid_rows(d, 0.1))
        objects = embedding_problem(grid_dists(d, 0.1))
        targets = [ResourceRef(QRAND_QUNIFORM, random_density(rng, d)) for _ in range(6)]
        self.check(rows, targets)
        # the matrix and the object tuple give the same results
        for y in targets:
            for a, b in zip(extension(rows, y), extension(objects, y)):
                assert (a.value, a.exact) == (b.value, b.exact)
                assert witness_index(rows, a) == witness_index(objects, b)

    def test_array_grid_into_rand_uniform_targets(self, rng):
        prob = dataclasses.replace(shannon_problem(COVARIANT, (), complete=True),
                                   candidates=grid_rows(4, 0.2))
        targets = [ResourceRef(RAND_UNIFORM, p) for p in grid_dists(3, 0.25)]
        targets += [ResourceRef(RAND_UNIFORM, Dist(sparse_dist(rng, n))) for n in (3, 4, 5)]
        self.check(prob, targets)

    def test_array_permuted_grid_ties_take_the_first_point(self, rng):
        prob = dataclasses.replace(embedding_problem(()), candidates=grid_rows(4, 0.25))
        grid = simplex_grid(4, 0.25)
        points = [grid[i] for i in rng.choice(len(grid), 8, replace=False)]
        targets = [
            ResourceRef(QRAND_QUNIFORM, embed_classical(Dist(w)))
            for p in points
            for w in (p, rng.permutation(p))
        ]
        self.check(prob, targets)
        # both bounds are H(p), met by the permutations of p alone, and grid
        # order is lexicographic: the first of them is p sorted ascending
        for y, p in zip(targets, np.repeat(points, 2, axis=0)):
            for side in extension(prob, y):
                assert side.witness.payload.weights.tolist() == sorted(p)

    def test_array_pairs_under_identity_and_embedding(self, rng):
        for n, k in [(4, 3), (3, 3), (2, 4)]:
            y, pairs = pair_family(rng, 20, n, k)
            for functor, theory_id, targets in [
                (identity_functor(CDISTINGUISH), CDISTINGUISH,
                 [ResourceRef(CDISTINGUISH, y)]),
                (classical_to_quantum_pair_functor(), DISTINGUISH_RESTRICTED,
                 [embedded_pair(y), embedded_pair(y, random_unitary(rng, k))]
                 + ([embedded_pair(pairs[5])] if n == k else [])),
            ]:
                prob = kl_problem(functor, theory_id, [])
                self.check(dataclasses.replace(prob, candidates=pair_rows(pairs)), targets)

    def test_array_grid_per_pair_in_rand_detmn(self, rng):
        # rand_detmn has no key, so a weight matrix runs per pair too: it
        # values its admitted rows with the row evaluator, the object tuple
        # with evaluate, and the two agree bit for bit
        grid = simplex_grid(3, 0.25)
        targets = [ResourceRef(RAND_DETMN, Dist.of_row(w)) for w in grid[::3]]
        targets += [ResourceRef(RAND_DETMN, d) for d in grid_dists(2, 0.25)]
        targets += [ResourceRef(RAND_DETMN, Dist(rng.dirichlet(np.ones(3))))]
        for variance in (COVARIANT, CONTRAVARIANT):
            objects = ExtensionProblem(
                make_monotone("shannon", variance),
                identity_functor(RAND_DETMN),
                REGISTRY.oracle(RAND_DETMN),
                tuple(ResourceRef(RAND_DETMN, d) for d in grid_dists(3, 0.25)),
                candidates_complete=True,
            )
            rows, decided = counting_decide(
                dataclasses.replace(objects, candidates=DistRows(RAND_DETMN, (grid,)))
            )
            witnessed = 0
            for y in targets:
                for a, b in zip(extension(rows, y), extension(objects, y)):
                    assert a.value.hex() == b.value.hex()
                    assert witness_index(rows, a) == witness_index(objects, b)
                    assert a.exact == b.exact
                    witnessed += a.witness is not None
            assert len(decided) == 2 * len(grid) * len(targets)
            assert 0 < witnessed < 2 * len(targets)

    def test_array_infinite_divergences_take_the_first_admissible(self):
        # candidate 0 has a finite divergence and does not reach the
        # perfectly distinguishable target; the others are perfectly
        # distinguishable, so each reaches the target and has divergence inf
        pairs = [(Dist([0.5, 0.5, 0.0]), Dist([0.25, 0.25, 0.5]))]
        pairs += [(Dist(p), Dist(q)) for p, q in [
            ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]),
            ([0.0, 0.0, 1.0], [0.3, 0.7, 0.0]),
            ([0.5, 0.5, 0.0], [0.0, 0.0, 1.0]),
        ]]
        y = ResourceRef(CDISTINGUISH, (Dist([1.0, 0.0]), Dist([0.0, 1.0])))
        prob = kl_problem(identity_functor(CDISTINGUISH), CDISTINGUISH, [])
        prob = dataclasses.replace(prob, candidates=pair_rows(pairs))
        self.check(prob, [y])
        # covariant: the sup over K(X) -> y is inf, first met at candidate 1
        lo, hi = extension(prob, y)
        assert (lo.value, witness_index(prob, lo)) == (1.0, 0)
        assert (hi.value, witness_index(prob, hi)) == (INF, 1)
        # contravariant: the inf over K(X) -> y is inf, the empty bound,
        # and its witness is still the first admissible candidate
        contra = dataclasses.replace(
            prob, monotone=dataclasses.replace(prob.monotone, variance=CONTRAVARIANT)
        )
        lo, hi = extension(contra, y)
        assert (lo.value, witness_index(prob, lo)) == (INF, 1)
        assert (hi.value, witness_index(prob, hi)) == (INF, 1)


class TestGridRefinement:
    def test_nested_grids_move_extensions_monotonically(self):
        y = ResourceRef(QRAND_QUNIFORM, embed_classical(Dist([0.8, 0.2])))
        coarse = embedding_problem(grid_dists(2, 0.25))
        fine = embedding_problem(grid_dists(2, 0.05))
        fine_lo, fine_hi = extension(fine, y)
        coarse_lo, coarse_hi = extension(coarse, y)
        assert fine_lo.value <= coarse_lo.value
        assert fine_hi.value >= coarse_hi.value

    def test_contravariant_duals(self):
        y = ResourceRef(RAND_UNIFORM, Dist([0.8, 0.2]))
        coarse = shannon_problem(CONTRAVARIANT, grid_dists(2, 0.25))
        fine = shannon_problem(CONTRAVARIANT, grid_dists(2, 0.05))
        fine_lo, fine_hi = extension(fine, y)
        coarse_lo, coarse_hi = extension(coarse, y)
        assert fine_lo.value >= coarse_lo.value
        assert fine_hi.value <= coarse_hi.value


class TestVerifyReduction:
    def test_identity_functor_gives_equality(self, rng):
        dists = [Dist(rng.dirichlet(np.ones(3))) for _ in range(10)]
        prob = shannon_problem(COVARIANT, dists, complete=True)
        report = verify_reduction(prob, list(prob.candidates))
        assert report["passed"]
        assert report["equalities"] == len(dists)

    def test_embedding_gives_equality_on_diagonals(self, rng):
        dists = [Dist(rng.dirichlet(np.ones(3))) for _ in range(10)]
        prob = embedding_problem(dists)
        report = verify_reduction(prob, list(prob.candidates))
        assert report["passed"]
        assert report["equalities"] == len(dists)

    def test_contravariant_orientation(self, rng):
        dists = [Dist(rng.dirichlet(np.ones(3))) for _ in range(10)]
        prob = shannon_problem(CONTRAVARIANT, dists)
        report = verify_reduction(prob, list(prob.candidates))
        assert report["passed"]

    def test_sample_missing_from_candidates_can_still_sandwich(self):
        # (0.3, 0.7) is interreachable with the sample, so both extensions
        # attain the sample's own entropy even without the sample listed;
        # cross-checked by independent brute force over the candidate list
        prob = shannon_problem(COVARIANT, [Dist([0.3, 0.7]), Dist([0.5, 0.5])])
        sample = ResourceRef(RAND_UNIFORM, Dist([0.7, 0.3]))
        report = verify_reduction(prob, [sample])
        assert report["passed"]
        h = shannon_entropy(sample.payload)
        assert bf_minimal_extension(prob, sample) == pytest.approx(h)
        assert bf_maximal_extension(prob, sample) == pytest.approx(h)


class TestVerifyMonotonicity:
    def test_trivial_pair(self):
        prob = shannon_problem(COVARIANT, grid_dists(2, 0.1))
        y = ResourceRef(RAND_UNIFORM, Dist([0.6, 0.4]))
        report = verify_monotonicity(prob, [(y, y)])
        assert report["passed"]

    def test_classical_free_pairs(self, rng):
        prob = shannon_problem(COVARIANT, grid_dists(3, 0.1))
        pairs = []
        for _ in range(20):
            p = Dist(rng.dirichlet(np.ones(3)))
            q = apply(p, random_uniform_matrix(rng, 3))
            pairs.append((ResourceRef(RAND_UNIFORM, p), ResourceRef(RAND_UNIFORM, q)))
        report = verify_monotonicity(prob, pairs)
        assert report["passed"]

    def test_quantum_unital_pairs(self, rng):
        prob = embedding_problem(grid_dists(2, 0.1))
        pairs = []
        for _ in range(10):
            rho = random_density(rng, 2)
            u = random_uniform_matrix(rng, 2)
            spec = eig_hermitian(rho)
            mixed = (spec.eigenvectors * apply(spec.eigenvalues, u).weights) @ (
                spec.eigenvectors.conj().T
            )
            from kanext.quantum import DensityMatrix

            pairs.append(
                (
                    ResourceRef(QRAND_QUNIFORM, rho),
                    ResourceRef(QRAND_QUNIFORM, DensityMatrix(mixed)),
                )
            )
        report = verify_monotonicity(prob, pairs)
        assert report["passed"]

    def test_contravariant_pairs_non_increasing(self, rng):
        prob = shannon_problem(CONTRAVARIANT, grid_dists(3, 0.1))
        pairs = []
        for _ in range(15):
            p = Dist(rng.dirichlet(np.ones(3)))
            q = apply(p, random_uniform_matrix(rng, 3))
            pairs.append((ResourceRef(RAND_UNIFORM, p), ResourceRef(RAND_UNIFORM, q)))
        report = verify_monotonicity(prob, pairs)
        assert report["passed"]

    def test_rejects_non_free_pair(self):
        prob = shannon_problem(COVARIANT, grid_dists(2, 0.1))
        y = ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5]))
        y2 = ResourceRef(RAND_UNIFORM, Dist([0.9, 0.1]))
        with pytest.raises(ValueError):
            verify_monotonicity(prob, [(y, y2)])


def chain_problem(values: dict[int, float]):
    """Covariant candidate values on the chain 0 -> 1 -> 2, candidate k
    mapped to object k, and the chain's objects."""
    chain = np.array(
        [[True, True, True], [False, True, True], [False, False, True]]
    )

    def decide(a, b):
        return Decision(bool(chain[a.payload, b.payload]))

    oracle = ReachabilityOracle("chain", decide, exact=True)
    objects = [ResourceRef("chain", i) for i in range(3)]
    prob = ExtensionProblem(
        MonotoneSpec("grid_values", lambda r: values[r.payload], COVARIANT),
        FunctorMap("into_chain", "src", "chain", lambda r: objects[r.payload]),
        oracle,
        tuple(ResourceRef("src", k) for k in values),
        candidates_complete=True,
    )
    return prob, objects


def extension_values(prob, objects):
    return [tuple(side.value for side in extension(prob, y)) for y in objects]


def beaten_pairs(report) -> set[tuple[str, int]]:
    """(side, object) of each "{side} extension beaten at object {t}: ..."."""
    pairs = set()
    for message in report["violations"]:
        side, rest = message.split(" extension beaten at object ")
        pairs.add((side, int(rest.split(":")[0])))
    return pairs


class TestVerifyOptimality:
    def test_three_object_chain(self):
        prob, objects = chain_problem({0: 2.0, 1: 0.5})
        assert verify_optimality(prob, objects, (0.0, 0.5, 1.0, 2.0, INF))["passed"]

    def test_enumeration_counts_chain_competitors(self):
        # minimal side: G0 <= G1 <= G2 with G0 <= 2 and G1 <= 0.5, 13 in all;
        # maximal side: G0 <= G1 <= G2 with G0 >= 2 and G1 >= 0.5, 4 in all
        prob, objects = chain_problem({0: 2.0, 1: 0.5})
        beaten, counts = bf_beaten_extensions(
            prob, objects, (0.0, 0.5, 1.0, 2.0, INF), extension_values(prob, objects)
        )
        assert beaten == set()
        assert counts == (13, 4)

    def test_agrees_with_enumeration(self, monkeypatch):
        """The extreme competitor gives the enumeration's verdict and beaten
        (side, object) pairs on 2,000 toy problems; in every second one, one
        extension value is replaced by a random grid value."""
        real = kan.extension
        failed = 0
        for i in range(2000):
            rng = np.random.default_rng(52000 + i)
            problem, objects, grid = random_toy_problem(rng)
            values = extension_values(problem, objects)
            if i % 2:
                t, side = int(rng.integers(len(objects))), int(rng.integers(2))
                row = list(values[t])
                row[side] = grid[int(rng.integers(len(grid)))]
                values[t] = tuple(row)

            def perturbed(prob, y, values=values, objects=objects):
                results = real(prob, y)
                row = values[objects.index(y)]
                return tuple(dataclasses.replace(r, value=v) for r, v in zip(results, row))

            monkeypatch.setattr(kan, "extension", perturbed)
            report = verify_optimality(problem, objects, grid)
            beaten, _ = bf_beaten_extensions(problem, objects, grid, values)
            assert beaten_pairs(report) == beaten, i
            assert report["passed"] == (not beaten), i
            failed += not report["passed"]
        # the perturbed half must exercise the failing verdict
        assert failed > 100

    @pytest.mark.parametrize(
        "grid,beaten",
        [((1.0, 2.0, INF), set()), ((0.5, 1.0), {("minimal", t) for t in range(3)})],
        ids=["no_competitor", "competitor"],
    )
    def test_side_without_competitors_passes(self, monkeypatch, grid, beaten):
        # Every object reaches object 2, whose image bound 0.5 caps the
        # minimal side's competitors there.  With no grid value at or below
        # 0.5 no competitor exists, so even a wrong minimal extension of 0
        # is not beaten.
        prob, objects = chain_problem({2: 0.5})
        real = kan.extension
        monkeypatch.setattr(
            kan,
            "extension",
            lambda p, y: (dataclasses.replace(real(p, y)[0], value=0.0), real(p, y)[1]),
        )
        values = [(0.0, hi) for _, hi in extension_values(prob, objects)]
        report = verify_optimality(prob, objects, grid)
        assert beaten_pairs(report) == beaten
        assert report["passed"] == (not beaten)
        assert bf_beaten_extensions(prob, objects, grid, values)[0] == beaten

    @pytest.mark.parametrize(
        "relation",
        [[[True, True, False], [False, True, True], [False, False, True]],
         [[True, False], [False, False]]],
        ids=["intransitive", "irreflexive"],
    )
    def test_unsound_oracle_raises(self, relation):
        rel = np.array(relation)
        oracle = ReachabilityOracle(
            "bad", lambda a, b: Decision(bool(rel[a.payload, b.payload])), exact=True
        )
        objects = [ResourceRef("bad", i) for i in range(len(rel))]
        prob = ExtensionProblem(
            MonotoneSpec("zero", lambda r: 0.0, COVARIANT),
            identity_functor("bad"),
            oracle,
            (objects[0],),
        )
        with pytest.raises(OracleSoundnessError):
            verify_optimality(prob, objects, (0.0, 1.0, INF))
