"""Dense complex linear algebra for small quantum systems.

Density matrices and their spectra, the classical embedding (diagonal
states), entropies and sampled projective measurements, Schmidt
coefficients of bipartite pure states (squared singular values of the
coefficient matrix), and pure-state LOCC convertibility by Nielsen's
theorem.  Density matrices stay at or below DIMENSION_CAP, so everything
is plain dense numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .prob import (
    Dist,
    ExtValue,
    InvariantViolation,
    dist_rows,
    entropy_rows,
    majorization_mask,
    shannon_entropy,
)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
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
        # before any arithmetic, which would warn on infinite entries
        if not np.isfinite(m).all():
            raise InvariantViolation("matrix has a non-finite entry")
        if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL:
            raise InvariantViolation("matrix is not Hermitian")
        m = (m + m.conj().T) / 2
        if not abs(m.trace().real - 1.0) <= TRACE_TOL:
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
        if da < 1 or db < 1:
            raise InvariantViolation(f"dims {da} and {db} must be positive")
        if v.size != da * db:
            raise InvariantViolation(f"vector length {v.size} != {da} * {db}")
        # written so that a NaN norm fails too
        if not abs(np.linalg.norm(v) - 1.0) <= NORM_TOL:
            raise InvariantViolation("state vector is not normalized")
        v.setflags(write=False)
        object.__setattr__(self, "state_vector", v)
        object.__setattr__(self, "dims", (int(da), int(db)))


def complex_matrix_from_json(data) -> np.ndarray:
    """A complex matrix from nested [re, im] pairs, row-major.  JSON true
    and false are refused, though ``complex`` would read them as 1 and 0."""
    matrix = np.array([[complex(re, im) for re, im in row] for row in data])
    if bool in set(map(type, chain.from_iterable(chain.from_iterable(data)))):
        raise InvariantViolation("matrix entries must be numbers, not true or false")
    return matrix


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


def spectral_entropy(rho: DensityMatrix) -> ExtValue:
    """Shannon entropy of the spectrum (the von Neumann entropy, in bits)."""
    return shannon_entropy(rho.spectrum.eigenvalues)


def outcome_rows(rho: DensityMatrix, bases: np.ndarray) -> np.ndarray:
    """Outcome distributions of rank-one projective measurements, one per
    basis of a (B, d, d) stack of basis columns, as the rows of a
    ``dist_rows`` matrix.  Each row is contracted on its own, so it does not
    depend on the bases measured with it."""
    q = np.einsum("bij,ik,bkj->bj", bases.conj(), rho.entries, bases).real
    return dist_rows(np.clip(q, 0.0, None))


def basis_outcomes(rho: DensityMatrix, basis: np.ndarray) -> Dist:
    """Outcome distribution of a rank-one projective measurement: the
    one-basis case of ``outcome_rows``."""
    return Dist.of_row(outcome_rows(rho, basis[None])[0])


def haar_bases(dim: int, seed: int, count: int) -> np.ndarray:
    """``count`` Haar-random orthonormal bases as a (count, dim, dim) stack of
    basis columns, basis k deterministic in (seed, k).

    Basis k draws from its own counter-based Philox stream, the state of
    ``Philox(key=seed).jumped(k)``, so it does not depend on how many bases
    are drawn with it, and a sweep over indices can be split in any order or
    in parallel.  One stacked QR then turns every draw into its basis.
    """
    draws = np.empty((count, dim, dim), dtype=complex)
    for k in range(count):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, k, 0]))
        draws[k] = _ginibre(rng, dim)
    return _haar_unitaries(draws)


def measurement_entropy_search(rho: DensityMatrix, samples: int, seed: int) -> ExtValue:
    """Least outcome entropy over sampled rank-one projective measurements.

    The spectral basis is always included, first in the stack of bases
    measured at once, so the search never exceeds the spectral entropy,
    and random bases cannot beat it either.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    spectral = rho.spectrum.eigenvectors[None]
    bases = np.concatenate([spectral, haar_bases(rho.dim, seed, samples)])
    return float(entropy_rows(outcome_rows(rho, bases)).min())


def schmidt_coefficients(psi: BipartitePure) -> Dist:
    """The min(dA, dB) squared singular values of the dA x dB coefficient
    matrix, sorted decreasing: the spectrum of the reduced state on the
    smaller factor (Schmidt decomposition)."""
    return Dist(np.linalg.svd(psi.state_vector.reshape(psi.dims), compute_uv=False) ** 2)


def schmidt_rank(psi: BipartitePure) -> int:
    """Number of Schmidt coefficients above the numerical rank threshold."""
    return int(np.sum(schmidt_coefficients(psi).weights >= RANK_TOL))


def locc_convertible_pure(phi: BipartitePure, psi: BipartitePure) -> bool:
    """Nielsen criterion (Phys. Rev. Lett. 83, 436, 1999): phi -> psi under
    LOCC iff psi's Schmidt vector majorizes phi's (the source is the more
    uniformly entangled one).  Vectors of unequal lengths are zero-padded
    to one length: embedding a state in larger local spaces adds only zero
    coefficients."""
    a, b = schmidt_coefficients(psi), schmidt_coefficients(phi)
    n = max(len(a), len(b))
    padded = [np.concatenate([c.weights, np.zeros(n - len(c))]) for c in (a, b)]
    return bool(majorization_mask(*padded))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random state from a complex Wishart draw."""
    g = _ginibre(rng, dim)
    w = g @ g.conj().T
    return DensityMatrix(w / w.trace())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    return _haar_unitaries(_ginibre(rng, dim))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A dim x dim matrix of standard complex normal entries: the real
    parts are drawn first, then the imaginary parts."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """The Q factor of each matrix in a stack of complex normal draws, each
    column's phase fixed by the diagonal of R, which makes it Haar-distributed
    (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(draws)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
