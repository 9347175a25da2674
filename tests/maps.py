"""Stochastic maps, quantum channels and states that only the tests build.

The single-pair majorization and relative-majorization tests on
``Dist`` objects, pushing distributions through matrices, predicates on
matrices, Kraus channels with the measure-and-reassign embedding of
stochastic matrices, the partial trace, the maximally mixed state,
projectors of pure states, the JSON encoding of complex matrices, and the
one-basis-at-a-time Haar sampler that ``haar_bases`` must reproduce.  The
CLI decides reachability without applying a map or a channel, decides
majorization on weight arrays and reads matrices without writing them, so
none of this ships in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kanext.prob import (
    STOCHASTIC_TOL,
    DimensionMismatch,
    Dist,
    InvariantViolation,
    StochMatrix,
    majorization_mask,
    relative_majorization_mask,
)
from kanext.quantum import BipartitePure, DensityMatrix

# Kraus operators B_i must satisfy sum B_i^dag B_i = I to within this.
COMPLETENESS_TOL = 1e-9
# A channel is unital when it maps I/d_in to I/d_out to within this.
UNITAL_TOL = 1e-9


def majorizes(p: Dist, q: Dist) -> bool:
    """True iff q is majorized by p (q is the more uniform of the two).

    Decided by Lorenz-curve dominance: with entries sorted increasingly, the
    curve of p must lie on or below the curve of q at every knot i/n.  The
    lengths must agree.
    """
    if len(p) != len(q):
        raise DimensionMismatch(f"lengths {len(p)} and {len(q)} differ")
    return bool(majorization_mask(p.weights, q.weights))


def relatively_majorizes(source: tuple[Dist, Dist], target: tuple[Dist, Dist]) -> bool:
    """True iff one stochastic matrix M carries p to p2 and q to q2
    (``relative_majorization_mask`` on the weights).

    A uniform map from length n to length k is a stochastic map carrying
    u_n to u_k, so pairs (p, u_n) -> (q, u_k) decide uniform-map
    reachability (Gour et al., Phys. Rep. 583, 2015, arXiv:1309.6586).
    """
    (p, q), (p2, q2) = source, target
    return bool(relative_majorization_mask(p.weights, q.weights, p2.weights, q2.weights))


def apply(p: Dist, m: StochMatrix) -> Dist:
    """Push p through the stochastic map: returns p @ M."""
    if len(p) != m.entries.shape[0]:
        raise DimensionMismatch(
            f"distribution of length {len(p)} vs matrix {m.entries.shape}"
        )
    return Dist(p.weights @ m.entries)


def is_deterministic(m: StochMatrix) -> bool:
    """True iff every entry is 0 or 1, i.e. the matrix is a function X -> Y."""
    e = m.entries
    return bool(np.all(np.minimum(np.abs(e), np.abs(e - 1.0)) <= STOCHASTIC_TOL))


def is_uniform_matrix(m: StochMatrix) -> bool:
    """True iff every column sums to |X|/|Y|; such maps preserve uniformity.

    Square uniform matrices are exactly the doubly stochastic ones.
    """
    n, k = m.entries.shape
    return bool(np.all(np.abs(m.entries.sum(axis=0) - n / k) <= STOCHASTIC_TOL))


def random_deterministic(rng: np.random.Generator, n: int, k: int) -> StochMatrix:
    """A random function X -> Y as a 0/1 stochastic matrix."""
    m = np.zeros((n, k))
    m[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    return StochMatrix(m)


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


def embed_stochastic(m: StochMatrix) -> KrausChannel:
    """Channel of a stochastic matrix: Kraus operators sqrt(M_ij) |j><i|.

    Acts on diagonal states exactly as M acts on distributions, and kills
    off-diagonal terms (measure in the basis, then reassign).
    """
    n, k = m.entries.shape
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
    image = apply_channel(chan, maximally_mixed(chan.in_dim))
    target = np.eye(chan.out_dim) / chan.out_dim
    return bool(np.max(np.abs(image.entries - target)) <= UNITAL_TOL)


def stochastic_image_is_free(m: StochMatrix) -> bool:
    """Functor law probe: images of uniform matrices must be unital channels."""
    return is_unital(embed_stochastic(m))


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


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d) / d)


def projector(psi: BipartitePure) -> DensityMatrix:
    """The pure state |psi><psi| as a density matrix."""
    return DensityMatrix(np.outer(psi.state_vector, psi.state_vector.conj()))


def complex_matrix_to_json(m: np.ndarray) -> list:
    """Nested [re, im] pairs, row-major: what the CLI reads as a matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def haar_basis(dim: int, seed: int, index: int) -> np.ndarray:
    """Haar basis ``index`` of ``seed``, drawn on its own: a generator jumped
    ``index`` times past the start of the Philox stream of ``seed``, one
    single-matrix QR and the phase fix, written out apart from the package's
    stacked sampler."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))
