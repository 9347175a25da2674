"""Dense complex linear algebra for small quantum systems.

Density matrices, Kraus channels, the classical embedding (diagonal states
and measure-and-reassign channels), entropies, partial trace, Schmidt
structure, and pure-state LOCC convertibility.  Dimensions stay at or below
16, so everything is plain dense numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prob import (
    Dist,
    DimensionMismatch,
    ExtValue,
    InvariantViolation,
    StochMatrix,
    majorizes,
    shannon_entropy,
)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
UNITAL_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8
RANK_TOL = 1e-8
# A pure state vector's norm may differ from 1 by this much.
NORM_TOL = 1e-10
DIMENSION_CAP = 16


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semi-definite, trace-one complex matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        if d > DIMENSION_CAP:
            raise InvariantViolation(f"dimension {d} exceeds cap {DIMENSION_CAP}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise InvariantViolation("matrix is not Hermitian")
        m = (m + m.conj().T) / 2
        if abs(m.trace().real - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"trace {m.trace().real} deviates from 1")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise InvariantViolation("matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def spectrum(self) -> "Spectrum":
        """``eig_hermitian(self)``, decomposed on first use and then kept.

        Sound to share: the entries are frozen and read-only, and so are
        the arrays of the returned ``Spectrum``.
        """
        return eig_hermitian(self)

    @staticmethod
    def maximally_mixed(d: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(d) / d)

    def to_json(self) -> list:
        return complex_matrix_to_json(self.entries)

    @classmethod
    def from_json(cls, data) -> "DensityMatrix":
        return cls(complex_matrix_from_json(data))


@dataclass(frozen=True)
class KrausChannel:
    """A quantum channel as Kraus operators; each operator maps in -> out."""

    kraus_ops: tuple
    in_dim: int
    out_dim: int

    def __post_init__(self):
        ops = tuple(np.array(b, dtype=complex) for b in self.kraus_ops)
        if not ops:
            raise InvariantViolation("channel needs at least one Kraus operator")
        for b in ops:
            if b.shape != (self.out_dim, self.in_dim):
                raise InvariantViolation(
                    f"Kraus operator shape {b.shape} != ({self.out_dim}, {self.in_dim})"
                )
            b.setflags(write=False)
        total = sum(b.conj().T @ b for b in ops)
        if np.max(np.abs(total - np.eye(self.in_dim))) > COMPLETENESS_TOL:
            raise InvariantViolation("Kraus operators do not sum to the identity")
        object.__setattr__(self, "kraus_ops", ops)

    @staticmethod
    def identity(d: int) -> "KrausChannel":
        return KrausChannel((np.eye(d),), d, d)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (a distribution, sorted decreasing) with eigenvector columns."""

    eigenvalues: Dist
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class BipartitePure:
    """Unit vector on a tensor product H_A (x) H_B."""

    state_vector: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        v = np.asarray(self.state_vector, dtype=complex).reshape(-1)
        da, db = self.dims
        if v.size != da * db:
            raise InvariantViolation(f"vector length {v.size} != {da} * {db}")
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            raise InvariantViolation("state vector is not normalized")
        v.setflags(write=False)
        object.__setattr__(self, "state_vector", v)
        object.__setattr__(self, "dims", (int(da), int(db)))

    def projector(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.state_vector, self.state_vector.conj()))

    def to_json(self) -> dict:
        return {
            "state": [[float(z.real), float(z.imag)] for z in self.state_vector],
            "dims": list(self.dims),
        }

    @classmethod
    def from_json(cls, data) -> "BipartitePure":
        vec = np.array([complex(re, im) for re, im in data["state"]])
        return cls(vec, tuple(data["dims"]))


def complex_matrix_to_json(m: np.ndarray) -> list:
    """Nested [re, im] pairs, row-major."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def complex_matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def eig_hermitian(rho: DensityMatrix) -> Spectrum:
    """Eigen-decomposition with eigenvalues clipped to [0, 1] and renormalized."""
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(-vals)
    vals = vals[order]
    vecs = vecs[:, order]
    spectrum = Dist(np.clip(vals, 0.0, 1.0))
    recon = (vecs * spectrum.weights) @ vecs.conj().T
    if np.max(np.abs(recon - rho.entries)) > RECONSTRUCTION_TOL:
        raise NumericalError("eigendecomposition failed the reconstruction check")
    vecs.setflags(write=False)
    return Spectrum(spectrum, vecs)


def embed_classical(p: Dist) -> DensityMatrix:
    """Diagonal density matrix with p on the diagonal."""
    return DensityMatrix(np.diag(p.weights).astype(complex))


def embed_stochastic(m: StochMatrix) -> KrausChannel:
    """Channel of a stochastic matrix: Kraus operators sqrt(M_ij) |j><i|.

    Acts on diagonal states exactly as M acts on distributions, and kills
    off-diagonal terms (measure in the basis, then reassign).
    """
    n, k = m.shape
    ops = []
    for i in range(n):
        for j in range(k):
            b = np.zeros((k, n), dtype=complex)
            b[j, i] = np.sqrt(m.entries[i, j])
            ops.append(b)
    return KrausChannel(tuple(ops), in_dim=n, out_dim=k)


def apply_channel(chan: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if chan.in_dim != rho.dim:
        raise DimensionMismatch(f"channel input {chan.in_dim} vs state dim {rho.dim}")
    out = sum(b @ rho.entries @ b.conj().T for b in chan.kraus_ops)
    return DensityMatrix((out + out.conj().T) / 2)


def is_unital(chan: KrausChannel) -> bool:
    """True iff the maximally mixed input maps to the maximally mixed output."""
    image = apply_channel(chan, DensityMatrix.maximally_mixed(chan.in_dim))
    target = np.eye(chan.out_dim) / chan.out_dim
    return bool(np.max(np.abs(image.entries - target)) <= UNITAL_TOL)


def spectral_entropy(rho: DensityMatrix) -> ExtValue:
    """Shannon entropy of the spectrum (the von Neumann entropy, in bits)."""
    return shannon_entropy(rho.spectrum.eigenvalues)


def preparation_entropy(rho: DensityMatrix) -> ExtValue:
    """Least randomness over orthogonal pure-state decompositions.

    Every such decomposition diagonalizes rho, so this is the spectral
    entropy in closed form.
    """
    return spectral_entropy(rho)


def basis_outcomes(rho: DensityMatrix, basis: np.ndarray) -> Dist:
    """Outcome distribution of a rank-one projective measurement."""
    q = np.einsum("ij,ik,kj->j", basis.conj(), rho.entries, basis).real
    return Dist(np.clip(q, 0.0, None))


def haar_basis(dim: int, seed: int, index: int) -> np.ndarray:
    """Haar-random orthonormal basis, deterministic in (seed, index).

    Counter-based Philox streams keep samples independent per index, so a
    sweep over indices can be evaluated in any order or in parallel.
    """
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def measurement_entropy_search(rho: DensityMatrix, samples: int, seed: int) -> ExtValue:
    """Least outcome entropy over sampled rank-one projective measurements.

    The spectral basis is always included, so the search never exceeds the
    spectral entropy, and random bases cannot beat it either.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    best = shannon_entropy(basis_outcomes(rho, rho.spectrum.eigenvectors))
    for k in range(samples):
        h = shannon_entropy(basis_outcomes(rho, haar_basis(rho.dim, seed, k)))
        if h < best:
            best = h
    return best


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Trace out one tensor factor; keep is "A" or "B"."""
    da, db = dims
    if rho.dim != da * db:
        raise DimensionMismatch(f"dim {rho.dim} does not factor as {da} * {db}")
    blocks = rho.entries.reshape(da, db, da, db)
    if keep == "A":
        reduced = np.einsum("ijkj->ik", blocks)
    elif keep == "B":
        reduced = np.einsum("ijil->jl", blocks)
    else:
        raise ValueError(f'keep must be "A" or "B", got {keep!r}')
    return DensityMatrix(reduced)


def schmidt_coefficients(psi: BipartitePure) -> Dist:
    """Spectrum of the reduced state, sorted decreasing."""
    reduced = partial_trace(psi.projector(), psi.dims, keep="A")
    return eig_hermitian(reduced).eigenvalues


def schmidt_rank(psi: BipartitePure) -> int:
    """Number of Schmidt coefficients above the numerical rank threshold."""
    return int(np.sum(schmidt_coefficients(psi).weights >= RANK_TOL))


def locc_convertible_pure(phi: BipartitePure, psi: BipartitePure) -> bool:
    """Nielsen criterion: phi -> psi under LOCC iff psi's Schmidt vector
    majorizes phi's (the source is the more uniformly entangled one)."""
    return majorizes(schmidt_coefficients(psi), schmidt_coefficients(phi))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random state from a complex Wishart draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return DensityMatrix(w / w.trace())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))
