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
from typing import Callable, Mapping

import numpy as np

from .kan import FunctorMap
from .lp import (
    exists_deterministic_map,
    exists_joint_stochastic_map,
    exists_uniform_map,
)
from .pcat import (
    Decision,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
)
from .prob import Dist, StochMatrix, kl_divergence, majorizes, shannon_entropy
from .quantum import (
    BipartitePure,
    DensityMatrix,
    basis_outcomes,
    embed_classical,
    embed_stochastic,
    is_unital,
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


def rand_detmn_oracle(p: Dist, q: Dist) -> Decision:
    """A free arrow exists iff some function on outcomes carries p to q."""
    res = exists_deterministic_map(p, q)
    return Decision(res.feasible, res.witness, exact=True)


def rand_uniform_oracle(p: Dist, q: Dist) -> Decision:
    """Majorization decides equal lengths; the LP covers the rest.

    The fast path never builds a witness; exists_uniform_map recovers one
    and the tests cross-validate the two deciders against each other.
    """
    if len(p) == len(q):
        return Decision(majorizes(p, q), None, exact=True)
    res = exists_uniform_map(p, q)
    return Decision(res.feasible, res.witness, exact=True)


def qrand_quniform_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> Decision:
    """Unital-channel reachability via spectra.

    Equal dimensions reduce exactly to majorization of spectra; this covers
    embedded-classical endpoints as well, since measuring in the eigenbasis
    and preparing along an orthonormal basis are both unital.  Differing
    dimensions fall back to a composite family (measure, classical uniform
    map, prepare); positives are genuine but the decision is flagged
    inexact.
    """
    spec_rho = rho.spectrum.eigenvalues
    spec_sigma = sigma.spectrum.eigenvalues
    if rho.dim == sigma.dim:
        return Decision(majorizes(spec_rho, spec_sigma), None, exact=True)
    res = exists_uniform_map(spec_rho, spec_sigma)
    return Decision(res.feasible, res.witness, exact=False)


def cdistinguish_oracle(
    pair: tuple[Dist, Dist], target: tuple[Dist, Dist]
) -> Decision:
    """One stochastic matrix must carry both components simultaneously."""
    res = exists_joint_stochastic_map(pair, target)
    return Decision(res.feasible, res.witness, exact=True)


def purebip_locc_oracle(phi: BipartitePure, psi: BipartitePure) -> Decision:
    return Decision(locc_convertible_pure(phi, psi), None, exact=True)


def _common_eigenbasis(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A basis diagonalizing both matrices, or None if they do not commute."""
    if np.max(np.abs(a @ b - b @ a)) > 1e-10:
        return None
    vals, vecs = np.linalg.eigh(a)
    basis = vecs.astype(complex).copy()
    i = 0
    while i < len(vals):
        j = i
        while j < len(vals) and vals[j] - vals[i] <= 1e-8:
            j += 1
        if j - i > 1:
            block = basis[:, i:j]
            sub = block.conj().T @ b @ block
            _, u = np.linalg.eigh((sub + sub.conj().T) / 2)
            basis[:, i:j] = block @ u
        i = j
    return basis


def distinguish_restricted_oracle(
    source: tuple[DensityMatrix, DensityMatrix],
    target: tuple[DensityMatrix, DensityMatrix],
) -> Decision:
    """Restricted channel family for state-pair processing.

    Searches unitary conjugations composed with embedded stochastic maps:
    when both pairs commute internally, rotate to a joint eigenbasis and
    decide the classical joint-processing LP.  Positives are certified by
    the found channel; negatives only mean the family has no witness, so
    they are flagged inexact.
    """
    rho, sigma = source
    rho2, sigma2 = target
    if rho.dim == rho2.dim:
        same = (
            np.max(np.abs(rho.entries - rho2.entries)) <= 1e-10
            and np.max(np.abs(sigma.entries - sigma2.entries)) <= 1e-10
        )
        if same:
            return Decision(True, "identity", exact=True)
    v = _common_eigenbasis(rho.entries, sigma.entries)
    w = _common_eigenbasis(rho2.entries, sigma2.entries)
    if v is not None and w is not None:
        res = exists_joint_stochastic_map(
            (basis_outcomes(rho, v), basis_outcomes(sigma, v)),
            (basis_outcomes(rho2, w), basis_outcomes(sigma2, w)),
        )
        if res.feasible:
            return Decision(True, res.witness, exact=True)
    return Decision(False, None, exact=False)


def embed_classical_payload(payload):
    """Diagonal embedding on a distribution or componentwise on a pair."""
    if isinstance(payload, Dist):
        return embed_classical(payload)
    p, q = payload
    return (embed_classical(p), embed_classical(q))


def stochastic_image_is_free(m: StochMatrix) -> bool:
    """Functor law probe: images of uniform matrices must be unital channels."""
    return is_unital(embed_stochastic(m))


def classical_to_quantum_functor() -> FunctorMap:
    return FunctorMap(
        "classical_to_quantum",
        RAND_UNIFORM,
        QRAND_QUNIFORM,
        lambda ref: ResourceRef(QRAND_QUNIFORM, embed_classical_payload(ref.payload)),
    )


def classical_to_quantum_pair_functor() -> FunctorMap:
    return FunctorMap(
        "classical_to_quantum_pairs",
        CDISTINGUISH,
        DISTINGUISH_RESTRICTED,
        lambda ref: ResourceRef(
            DISTINGUISH_RESTRICTED, embed_classical_payload(ref.payload)
        ),
    )


def identity_functor(theory_id: str) -> FunctorMap:
    return FunctorMap("identity", theory_id, theory_id, lambda ref: ref)


@dataclass(frozen=True)
class TheoryEntry:
    kind: str
    oracle: ReachabilityOracle


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

    return ReachabilityOracle(theory_id, decide, exact)


def default_registry() -> TheoryRegistry:
    entries = {
        RAND_DETMN: TheoryEntry("dist", _wrap(RAND_DETMN, rand_detmn_oracle, True)),
        RAND_UNIFORM: TheoryEntry("dist", _wrap(RAND_UNIFORM, rand_uniform_oracle, True)),
        QRAND_QUNIFORM: TheoryEntry(
            "density", _wrap(QRAND_QUNIFORM, qrand_quniform_oracle, True)
        ),
        CDISTINGUISH: TheoryEntry(
            "dist_pair", _wrap(CDISTINGUISH, cdistinguish_oracle, True)
        ),
        DISTINGUISH_RESTRICTED: TheoryEntry(
            "density_pair",
            _wrap(DISTINGUISH_RESTRICTED, distinguish_restricted_oracle, False),
        ),
        PUREBIP_LOCC: TheoryEntry("pure", _wrap(PUREBIP_LOCC, purebip_locc_oracle, True)),
    }
    return TheoryRegistry(entries)


def make_monotone(name: str, variance: str) -> MonotoneSpec:
    """Monotones the CLI can reference by id."""
    evaluators: dict[str, Callable] = {
        "shannon": lambda ref: shannon_entropy(ref.payload),
        "kl": lambda ref: kl_divergence(*ref.payload),
        "schmidt": lambda ref: float(schmidt_rank(ref.payload)),
        "spectral_entropy": lambda ref: spectral_entropy(ref.payload),
    }
    if name not in evaluators:
        known = ", ".join(sorted(evaluators))
        raise KeyError(f"unknown monotone {name!r}; known: {known}")
    return MonotoneSpec(name, evaluators[name], variance)


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
