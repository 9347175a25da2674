"""The shipped resource theories, wired to deciders, functors, and monotones.

Theory ids are stable strings used by the CLI config:

    rand_detmn             distributions under deterministic maps
    rand_uniform           distributions under uniform (column-sum) maps
    qrand_quniform         density matrices under unital channels
    cdistinguish           distribution pairs under joint stochastic maps
    distinguish_restricted density-matrix pairs, restricted channel family
    purebip_locc           bipartite pure states under LOCC
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from .kan import FunctorMap
from .lp import (
    exists_deterministic_map,
    exists_joint_stochastic_map,
    exists_uniform_map,
)
from .pcat import (
    IDENTITY_TOL,
    Decision,
    Dichotomy,
    DistRows,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
    keyed_decision,
)
from .prob import (
    Dist,
    StochMatrix,
    entropy_rows,
    kl_divergence,
    kl_rows,
    shannon_entropy,
)
from .quantum import (
    BipartitePure,
    DensityMatrix,
    basis_outcomes,
    embed_classical,
    locc_convertible_pure,
    schmidt_rank,
    spectral_entropy,
)

RAND_DETMN = "rand_detmn"
RAND_UNIFORM = "rand_uniform"
QRAND_QUNIFORM = "qrand_quniform"
CDISTINGUISH = "cdistinguish"
DISTINGUISH_RESTRICTED = "distinguish_restricted"
PUREBIP_LOCC = "purebip_locc"

# Two matrices commute when no entry of their commutator exceeds this.
COMMUTATOR_TOL = 1e-10
# Eigenvalues within this of each other form one degenerate block, in which
# a joint eigenbasis diagonalizes the second matrix.
EIGENVALUE_GROUP_TOL = 1e-8
# What distinguish_restricted reports for a pair that is the target itself.
IDENTITY_WITNESS = "identity"


def rand_detmn_oracle(p: Dist, q: Dist) -> Decision:
    """A free arrow exists iff some function on outcomes carries p to q."""
    witness = exists_deterministic_map(p, q)
    return Decision(witness is not None, witness, exact=True)


@lru_cache(maxsize=64)
def _uniform(n: int) -> Dist:
    """u_n, built once per length; sharing is sound, Dist is immutable."""
    return Dist.uniform(n)


def _uniform_key(p: Dist) -> Dichotomy:
    """(p, u_n): uniform maps are the stochastic maps carrying u_n to u_k."""
    return Dichotomy(p.weights, _uniform(len(p)).weights)


def rand_uniform_oracle(p: Dist, q: Dist) -> Decision:
    """A uniform map is a stochastic map carrying u_n to u_k, so the keys
    (p, u_n) and (q, u_k) decide; at equal lengths that is majorization of
    p over q.  No witness is built."""
    return keyed_decision(_uniform_key(p), _uniform_key(q), exact=True)


def uniform_map_witness(p: Dist, q: Dist) -> StochMatrix | None:
    """The LP's uniform map from p to q at unequal lengths; reach reports
    none at equal lengths, where majorization decides."""
    if len(p) == len(q):
        return None
    return exists_uniform_map(p, q)


def _spectrum_key(rho: DensityMatrix) -> Dichotomy:
    """(spectrum, u_d), which decides unital channels exactly at equal
    dimensions only (Uhlmann 1971)."""
    spectrum = rho.spectrum.eigenvalues
    return Dichotomy(spectrum.weights, _uniform(len(spectrum)).weights, across_lengths=False)


def qrand_quniform_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> Decision:
    """Unital-channel reachability via spectra.

    Equal dimensions reduce exactly to majorization of spectra; this covers
    embedded-classical endpoints as well, since measuring in the eigenbasis
    and preparing along an orthonormal basis are both unital.  Differing
    dimensions fall back to a composite family (measure, classical uniform
    map, prepare), decided on the spectra as in rand_uniform; positives are
    genuine but the decision is flagged inexact, since no theorem here
    covers unital channels between different dimensions.
    """
    return keyed_decision(_spectrum_key(rho), _spectrum_key(sigma), exact=True)


def qrand_quniform_witness(
    rho: DensityMatrix, sigma: DensityMatrix
) -> StochMatrix | None:
    """The classical uniform map between the spectra, at unequal dimensions."""
    return uniform_map_witness(rho.spectrum.eigenvalues, sigma.spectrum.eigenvalues)


def _dist_pair_key(pair: tuple[Dist, Dist]) -> Dichotomy:
    """The pair (p, q) itself: joint stochastic maps are the free maps."""
    return Dichotomy(pair[0].weights, pair[1].weights)


def cdistinguish_oracle(
    pair: tuple[Dist, Dist], target: tuple[Dist, Dist]
) -> Decision:
    """One stochastic matrix must carry both components simultaneously,
    which relative majorization decides."""
    return keyed_decision(_dist_pair_key(pair), _dist_pair_key(target), exact=True)


def purebip_locc_oracle(phi: BipartitePure, psi: BipartitePure) -> Decision:
    return Decision(locc_convertible_pure(phi, psi), None, exact=True)


def _common_eigenbasis(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A basis diagonalizing both matrices, or None if they do not commute."""
    if np.max(np.abs(a @ b - b @ a)) > COMMUTATOR_TOL:
        return None
    vals, vecs = np.linalg.eigh(a)
    basis = vecs.astype(complex).copy()
    i = 0
    while i < len(vals):
        j = i
        while j < len(vals) and vals[j] - vals[i] <= EIGENVALUE_GROUP_TOL:
            j += 1
        if j - i > 1:
            block = basis[:, i:j]
            sub = block.conj().T @ b @ block
            _, u = np.linalg.eigh((sub + sub.conj().T) / 2)
            basis[:, i:j] = block @ u
        i = j
    return basis


def _off_diagonal(m: np.ndarray) -> float:
    """The largest off-diagonal entry of m in absolute value."""
    return float(np.max(np.abs(m - np.diag(np.diagonal(m)))))


def _density_pair_key(
    pair: tuple[DensityMatrix, DensityMatrix], fixed_basis: bool = True
) -> Dichotomy | None:
    """Both states measured in a joint eigenbasis, or None unless they
    commute.  With ``fixed_basis``, a pair diagonal to within IDENTITY_TOL
    is measured in the standard basis instead, where keys that agree mean
    equal pairs: then the key is marked ``identity``, and the sweep admits
    such pairs both ways, as the oracle's shortcut does."""
    rho, sigma = pair
    basis = _common_eigenbasis(rho.entries, sigma.entries)
    if basis is None:
        return None
    diagonal = fixed_basis and (
        max(_off_diagonal(rho.entries), _off_diagonal(sigma.entries)) <= IDENTITY_TOL
    )
    if diagonal:
        basis = np.eye(rho.dim)
    p, q = basis_outcomes(rho, basis), basis_outcomes(sigma, basis)
    return Dichotomy(p.weights, q.weights, diagonal)


def distinguish_restricted_oracle(
    source: tuple[DensityMatrix, DensityMatrix],
    target: tuple[DensityMatrix, DensityMatrix],
) -> Decision:
    """Restricted channel family for state-pair processing.

    Searches unitary conjugations composed with embedded stochastic maps:
    when both pairs commute internally, rotate to a joint eigenbasis and
    decide the classical pairs by relative majorization.  Positives are
    certified by a channel of the family; negatives only mean the family
    has no witness, so they are flagged inexact.
    """
    rho, sigma = source
    rho2, sigma2 = target
    if rho.dim == rho2.dim:
        same = (
            np.max(np.abs(rho.entries - rho2.entries)) <= IDENTITY_TOL
            and np.max(np.abs(sigma.entries - sigma2.entries)) <= IDENTITY_TOL
        )
        if same:
            return Decision(True, IDENTITY_WITNESS, exact=True)
    a, b = _density_pair_key(source), _density_pair_key(target)
    if a is None or b is None:
        return Decision(False, None, exact=False)
    return keyed_decision(a, b, exact=False)


def distinguish_restricted_witness(
    source: tuple[DensityMatrix, DensityMatrix],
    target: tuple[DensityMatrix, DensityMatrix],
) -> StochMatrix | None:
    """The LP's joint map between the pairs' outcomes in their joint
    eigenbases, in whose order its rows and columns run."""
    keys = [_density_pair_key(pair, fixed_basis=False) for pair in (source, target)]
    if keys[0] is None or keys[1] is None:
        return None
    pair, image = ((Dist.of_row(k.p), Dist.of_row(k.q)) for k in keys)
    return exists_joint_stochastic_map(pair, image)


def embed_classical_payload(payload):
    """Diagonal embedding on a distribution or componentwise on a pair."""
    if isinstance(payload, Dist):
        return embed_classical(payload)
    p, q = payload
    return (embed_classical(p), embed_classical(q))


# Dichotomy keys (ReachabilityOracle.key) of payloads, by theory.
_ORDER_KEYS = {
    RAND_UNIFORM: _uniform_key,
    QRAND_QUNIFORM: _spectrum_key,
    CDISTINGUISH: _dist_pair_key,
    DISTINGUISH_RESTRICTED: _density_pair_key,
}


def _dist_keys(objects) -> tuple[np.ndarray, np.ndarray] | None:
    """The keys of distributions (p, u_n) or of distribution pairs (p, q),
    with uniform maps and joint stochastic maps as the free maps: a
    ``DistRows`` family's own matrices, with u_n as one row, or the
    objects' weights stacked; None unless each component has one length."""
    if isinstance(objects, DistRows):
        weights = objects.weights
    else:
        payloads = [ref.payload for ref in objects]
        columns = zip(*payloads) if isinstance(payloads[0], tuple) else [payloads]
        weights = [[d.weights for d in column] for column in columns]
        n = weights[0][0].size
        if any(w.size != n for column in weights for w in column):
            return None
        weights = [np.array(column) for column in weights]
    if len(weights) == 1:
        return weights[0], _uniform(weights[0].shape[-1]).weights
    return weights[0], weights[1]


def classical_to_quantum_functor() -> FunctorMap:
    """Diagonal embedding.  The spectrum of diag(p) is p sorted, and
    majorization ignores order, so the key map reads (p, u_n) off p."""
    return FunctorMap(
        "classical_to_quantum",
        RAND_UNIFORM,
        QRAND_QUNIFORM,
        lambda ref: ResourceRef(QRAND_QUNIFORM, embed_classical_payload(ref.payload)),
        _dist_keys,
    )


def classical_to_quantum_pair_functor() -> FunctorMap:
    """Componentwise diagonal embedding.  The joint outcomes of
    (diag(p), diag(q)) are (p, q) in the standard basis, so the key map
    reads them off (p, q)."""
    return FunctorMap(
        "classical_to_quantum_pairs",
        CDISTINGUISH,
        DISTINGUISH_RESTRICTED,
        lambda ref: ResourceRef(
            DISTINGUISH_RESTRICTED, embed_classical_payload(ref.payload)
        ),
        _dist_keys,
    )


def _spectrum_keys(objects) -> tuple[np.ndarray, np.ndarray] | None:
    """The (spectrum, u_d) keys of density matrices, stacked; None unless
    the dimensions agree."""
    keys = [_spectrum_key(ref.payload) for ref in objects]
    n = keys[0].p.size
    if any(k.p.size != n for k in keys):
        return None
    return np.array([k.p for k in keys]), keys[0].q


def identity_functor(theory_id: str) -> FunctorMap:
    """The identity; its key map is the theory's own key.  Not so for
    distinguish_restricted, whose identity shortcut compares whole
    matrices: a key in the joint eigenbasis of a rotated pair does not
    determine them, so those sweeps stay per pair."""
    map_key = {
        RAND_UNIFORM: _dist_keys,
        CDISTINGUISH: _dist_keys,
        QRAND_QUNIFORM: _spectrum_keys,
    }.get(theory_id)
    return FunctorMap("identity", theory_id, theory_id, lambda ref: ref, map_key)


@dataclass(frozen=True)
class TheoryEntry:
    """A theory's object kind and oracle.  ``witness(source, target)``, where
    given, builds the free transformation that ``reach`` reports for a
    reachable pair whose decision carries none."""

    kind: str
    oracle: ReachabilityOracle
    witness: Callable[[Any, Any], Any] | None = None


@dataclass(frozen=True)
class TheoryRegistry:
    entries: Mapping[str, TheoryEntry]

    def entry(self, theory_id: str) -> TheoryEntry:
        if theory_id not in self.entries:
            known = ", ".join(sorted(self.entries))
            raise KeyError(f"unknown theory {theory_id!r}; known: {known}")
        return self.entries[theory_id]

    def oracle(self, theory_id: str) -> ReachabilityOracle:
        return self.entry(theory_id).oracle


def _wrap(theory_id: str, fn: Callable, exact: bool) -> ReachabilityOracle:
    def decide(a: ResourceRef, b: ResourceRef) -> Decision:
        if a.theory_id != theory_id or b.theory_id != theory_id:
            raise ValueError(
                f"oracle for {theory_id!r} got objects from "
                f"{a.theory_id!r} and {b.theory_id!r}"
            )
        return fn(a.payload, b.payload)

    payload_key = _ORDER_KEYS.get(theory_id)
    if payload_key is None:
        return ReachabilityOracle(theory_id, decide, exact)

    def key(ref: ResourceRef) -> Dichotomy | None:
        if ref.theory_id != theory_id:
            raise ValueError(f"oracle for {theory_id!r} got an object from {ref.theory_id!r}")
        return payload_key(ref.payload)

    return ReachabilityOracle(theory_id, decide, exact, key)


def default_registry() -> TheoryRegistry:
    entries = {
        RAND_DETMN: TheoryEntry("dist", _wrap(RAND_DETMN, rand_detmn_oracle, True)),
        RAND_UNIFORM: TheoryEntry(
            "dist", _wrap(RAND_UNIFORM, rand_uniform_oracle, True), uniform_map_witness
        ),
        QRAND_QUNIFORM: TheoryEntry(
            "density",
            _wrap(QRAND_QUNIFORM, qrand_quniform_oracle, True),
            qrand_quniform_witness,
        ),
        CDISTINGUISH: TheoryEntry(
            "dist_pair",
            _wrap(CDISTINGUISH, cdistinguish_oracle, True),
            exists_joint_stochastic_map,
        ),
        DISTINGUISH_RESTRICTED: TheoryEntry(
            "density_pair",
            _wrap(DISTINGUISH_RESTRICTED, distinguish_restricted_oracle, False),
            distinguish_restricted_witness,
        ),
        PUREBIP_LOCC: TheoryEntry("pure", _wrap(PUREBIP_LOCC, purebip_locc_oracle, True)),
    }
    return TheoryRegistry(entries)


def make_monotone(name: str, variance: str) -> MonotoneSpec:
    """Monotones the CLI can reference by id."""
    # (evaluate, rows): rows evaluate DistRows weight matrices at once
    evaluators: dict[str, tuple[Callable, Callable | None]] = {
        "shannon": (lambda ref: shannon_entropy(ref.payload), entropy_rows),
        "kl": (lambda ref: kl_divergence(*ref.payload), kl_rows),
        "schmidt": (lambda ref: float(schmidt_rank(ref.payload)), None),
        "spectral_entropy": (lambda ref: spectral_entropy(ref.payload), None),
    }
    if name not in evaluators:
        known = ", ".join(sorted(evaluators))
        raise KeyError(f"unknown monotone {name!r}; known: {known}")
    evaluate, rows = evaluators[name]
    return MonotoneSpec(name, evaluate, variance, rows)


def make_functor(name: str, theory_id: str | None = None) -> FunctorMap:
    """Functors the CLI can reference by id."""
    if name == "classical_to_quantum":
        return classical_to_quantum_functor()
    if name == "classical_to_quantum_pairs":
        return classical_to_quantum_pair_functor()
    if name == "identity":
        if theory_id is None:
            raise ValueError("identity functor needs a theory id")
        return identity_functor(theory_id)
    raise KeyError(f"unknown functor {name!r}")
