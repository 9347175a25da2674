"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from brute_force import bf_beaten_extensions, bf_maximal_extension, bf_minimal_extension
from conftest import bell_state, ghz3_state, product_state
from kanext.bf_oracle import random_toy_problem
from kanext.kan import (
    ExtensionProblem,
    extension,
    verify_optimality,
    verify_reduction,
)
from kanext.lp import exists_joint_stochastic_map, uniform_map_mask
from kanext.pcat import CONTRAVARIANT, COVARIANT, MonotoneSpec, ResourceRef, ext_leq
from kanext.prob import (
    INF,
    Dist,
    StochMatrix,
    kl_divergence,
    random_stochastic,
    random_uniform_matrix,
    shannon_entropy,
    simplex_grid,
)
from kanext.quantum import (
    eig_hermitian,
    embed_classical,
    locc_convertible_pure,
    measurement_entropy_search,
    random_density,
    schmidt_rank,
    spectral_entropy,
)
from kanext.theories import (
    PUREBIP_LOCC,
    QRAND_QUNIFORM,
    RAND_UNIFORM,
    classical_to_quantum_functor,
    default_registry,
    identity_functor,
    make_monotone,
)
from maps import (
    apply,
    apply_channel,
    embed_stochastic,
    is_uniform_matrix,
    is_unital,
    majorizes,
)

REGISTRY = default_registry()


def report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def spectral_problem(spectrum: Dist) -> ExtensionProblem:
    return ExtensionProblem(
        make_monotone("shannon", COVARIANT),
        classical_to_quantum_functor(),
        REGISTRY.oracle(QRAND_QUNIFORM),
        (ResourceRef(RAND_UNIFORM, spectrum),),
        candidates_complete=True,
    )


def test_criterion_1_hlp_equivalence():
    """Lorenz majorization and LP uniform-map feasibility must agree on every
    pair of the 0.05-step simplex grids for lengths 2 and 3."""
    start = time.time()
    disagreements = 0
    checked = 0
    for n in (2, 3):
        weights = simplex_grid(n, 0.05)
        grid = [Dist.of_row(w) for w in weights]
        lp_says = uniform_map_mask(weights[:, None], weights[None, :])
        for i, p in enumerate(grid):
            for j, q in enumerate(grid):
                checked += 1
                if majorizes(p, q) != lp_says[i, j]:
                    disagreements += 1
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed < 30
    report(1, ok, f"{checked} pairs, {disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 30


def test_criterion_2_shannon_extension_coincidence():
    """Both extensions along the diagonal embedding, over the spectral
    candidate family, must equal the spectral entropy; a 200-basis sampled
    measurement search must never beat it."""
    start = time.time()
    rng = np.random.default_rng(20240815)
    worst_gap = 0.0
    worst_beat = 0.0
    for i in range(50):
        dim = 2 + i % 3
        rho = random_density(rng, dim)
        reference = spectral_entropy(rho)
        problem = spectral_problem(eig_hermitian(rho).eigenvalues)
        y = ResourceRef(QRAND_QUNIFORM, rho)
        lo, hi = extension(problem, y)
        assert lo.exact and hi.exact
        worst_gap = max(worst_gap, abs(lo.value - reference), abs(hi.value - reference))
        sampled = measurement_entropy_search(rho, samples=200, seed=1000 + i)
        worst_beat = max(worst_beat, reference - sampled)
    elapsed = time.time() - start
    ok = worst_gap <= 1e-9 and worst_beat <= 1e-9 and elapsed < 60
    report(2, ok, f"gap {worst_gap:.2e}, search margin {worst_beat:.2e}, {elapsed:.1f}s")
    assert worst_gap <= 1e-9
    assert worst_beat <= 1e-9
    assert elapsed < 60


def test_criterion_3_ff_reduction():
    """Embedding a classical distribution must leave both extensions exactly
    at its entropy (value preservation along a full and faithful functor)."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(50):
        n = 2 + i % 3
        p = Dist(rng.dirichlet(np.ones(n)))
        problem = spectral_problem(p)
        y = ResourceRef(QRAND_QUNIFORM, embed_classical(p))
        h = shannon_entropy(p)
        lo, hi = extension(problem, y)
        worst = max(worst, abs(lo.value - h), abs(hi.value - h))
    ok = worst <= 1e-9
    report(3, ok, f"50 embeddings, worst deviation {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_4_reduction_monotonicity_optimality():
    """On 500 toy problems the engine must equal brute force exactly,
    satisfy the variance-appropriate sandwich on every source sample, and
    win against every competitor monotone: against the extreme one in the
    engine's check, and against every enumerated one in the brute-force
    check of the brute-force extension values."""
    start = time.time()
    mismatches = 0
    sandwich_failures = 0
    optimality_failures = 0
    for i in range(500):
        rng = np.random.default_rng(31000 + i)
        problem, objects, grid = random_toy_problem(rng, max_objects=8)
        bf_values = []
        for y in objects:
            lo, hi = extension(problem, y)
            bf_values.append((bf_minimal_extension(problem, y), bf_maximal_extension(problem, y)))
            if lo.value != bf_values[-1][0]:
                mismatches += 1
            if hi.value != bf_values[-1][1]:
                mismatches += 1
        if not verify_reduction(problem, list(problem.candidates))["passed"]:
            sandwich_failures += 1
        if not verify_optimality(problem, objects, grid)["passed"]:
            optimality_failures += 1
        if bf_beaten_extensions(problem, objects, grid, bf_values)[0]:
            optimality_failures += 1
    elapsed = time.time() - start
    ok = (
        mismatches == 0
        and sandwich_failures == 0
        and optimality_failures == 0
        and elapsed < 120
    )
    report(
        4,
        ok,
        f"500 problems, {mismatches} engine/bf mismatches, "
        f"{sandwich_failures} sandwich failures, "
        f"{optimality_failures} optimality failures, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert sandwich_failures == 0
    assert optimality_failures == 0
    assert elapsed < 120


def test_criterion_5_empty_diagram_constants():
    """Extensions over empty admissible sets must hit the poset's initial
    and terminal objects exactly."""
    y = ResourceRef(RAND_UNIFORM, Dist([0.5, 0.5]))
    results = {}
    for variance in (COVARIANT, CONTRAVARIANT):
        problem = ExtensionProblem(
            MonotoneSpec("shannon", lambda r: shannon_entropy(r.payload), variance),
            identity_functor(RAND_UNIFORM),
            REGISTRY.oracle(RAND_UNIFORM),
            (),
        )
        results[variance] = tuple(side.value for side in extension(problem, y))
    ok = results[CONTRAVARIANT] == (0.0, INF) and results[COVARIANT] == (INF, 0.0)
    report(5, ok, f"contravariant {results[CONTRAVARIANT]}, covariant {results[COVARIANT]}")
    assert results[CONTRAVARIANT] == (0.0, INF)
    assert results[COVARIANT] == (INF, 0.0)


def test_criterion_6_data_processing():
    """Joint processing must exist for pushed-forward pairs and can never
    increase the KL divergence beyond slack."""
    rng = np.random.default_rng(606)
    infeasible = 0
    increases = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        p = Dist(rng.dirichlet(np.ones(n)))
        q = Dist(rng.dirichlet(np.ones(n)))
        m = random_stochastic(rng, n, k)
        p2, q2 = apply(p, m), apply(q, m)
        if exists_joint_stochastic_map((p, q), (p2, q2)) is None:
            infeasible += 1
            continue
        if not ext_leq(kl_divergence(p2, q2), kl_divergence(p, q), 1e-9):
            increases += 1
    ok = infeasible == 0 and increases == 0
    report(6, ok, f"200 instances, {infeasible} infeasible, {increases} increases")
    assert infeasible == 0
    assert increases == 0


def test_criterion_7_pure_state_entanglement():
    """Schmidt ranks, the LOCC direction between Bell and product states, and
    the maximal Schmidt extension at a Bell target."""
    bell, product, ghz = bell_state(), product_state(), ghz3_state()
    ranks_ok = (
        schmidt_rank(product) == 1
        and schmidt_rank(bell) == 2
        and schmidt_rank(ghz) == 3
    )
    locc_ok = locc_convertible_pure(bell, product) and not locc_convertible_pure(
        product, bell
    )
    problem = ExtensionProblem(
        make_monotone("schmidt", CONTRAVARIANT),
        identity_functor(PUREBIP_LOCC),
        REGISTRY.oracle(PUREBIP_LOCC),
        (
            ResourceRef(PUREBIP_LOCC, product),
            ResourceRef(PUREBIP_LOCC, bell),
        ),
    )
    ext = extension(problem, ResourceRef(PUREBIP_LOCC, bell))[1]
    ok = ranks_ok and locc_ok and ext.value == 2.0
    report(7, ok, f"ranks {ranks_ok}, locc {locc_ok}, max extension {ext.value}")
    assert ranks_ok
    assert locc_ok
    assert ext.value == 2.0


def test_criterion_8_embedding_functoriality():
    """The stochastic-to-channel embedding must respect composition on
    embedded states, and must send exactly the uniform matrices to unital
    channels."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        n, k, l = (int(rng.integers(1, 5)) for _ in range(3))
        p = Dist(rng.dirichlet(np.ones(n)))
        m = random_stochastic(rng, n, k)
        second = random_stochastic(rng, k, l)
        rho = embed_classical(p)
        composed = StochMatrix(m.entries @ second.entries)
        direct = apply_channel(embed_stochastic(composed), rho)
        staged = apply_channel(
            embed_stochastic(second), apply_channel(embed_stochastic(m), rho)
        )
        worst = max(worst, float(np.max(np.abs(direct.entries - staged.entries))))
    unital_mismatches = 0
    for i in range(100):
        n = int(rng.integers(2, 5))
        if i % 2 == 0:
            matrix = random_uniform_matrix(rng, n)
        else:
            matrix = random_stochastic(rng, n, n)
        if is_unital(embed_stochastic(matrix)) != is_uniform_matrix(matrix):
            unital_mismatches += 1
    ok = worst <= 1e-9 and unital_mismatches == 0
    report(8, ok, f"composition error {worst:.2e}, {unital_mismatches} unital mismatches")
    assert worst <= 1e-9
    assert unital_mismatches == 0
