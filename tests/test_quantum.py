from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conftest import bell_state, ghz3_state, low_rank_pure, product_state, random_pure
from kanext.prob import Dist, DimensionMismatch, InvariantViolation, StochMatrix, shannon_entropy
from kanext.quantum import (
    BipartitePure,
    DensityMatrix,
    complex_matrix_from_json,
    eig_hermitian,
    embed_classical,
    basis_outcomes,
    haar_bases,
    locc_convertible_pure,
    measurement_entropy_search,
    outcome_rows,
    random_density,
    random_unitary,
    schmidt_coefficients,
    schmidt_rank,
    spectral_entropy,
)
from kanext.prob import random_stochastic, random_uniform_matrix
from maps import (
    KrausChannel,
    apply,
    apply_channel,
    complex_matrix_to_json,
    embed_stochastic,
    haar_basis,
    is_uniform_matrix,
    is_unital,
    maximally_mixed,
    partial_trace,
    projector,
)


def diag_state(*weights) -> DensityMatrix:
    return DensityMatrix(np.diag(weights).astype(complex))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_oversize(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.eye(17) / 17)

    @pytest.mark.parametrize(
        "entries",
        [[[np.nan, 0], [0, 0.5]], [[0.5, np.nan], [np.nan, 0.5]], [[0.5, np.inf], [np.inf, 0.5]]],
        ids=["nan_diagonal", "nan_off_diagonal", "inf_off_diagonal"],
    )
    def test_rejects_non_finite_entries(self, entries):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.array(entries, dtype=complex))

    def test_json_round_trip(self):
        rho = DensityMatrix(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        again = DensityMatrix(complex_matrix_from_json(complex_matrix_to_json(rho.entries)))
        assert np.allclose(again.entries, rho.entries)

    @pytest.mark.parametrize("entry", [[True, 0], [1, False]])
    def test_json_bools_are_not_numbers(self, entry):
        with pytest.raises(InvariantViolation):
            complex_matrix_from_json([[entry, [0, 0]], [[0, 0], [0, 0]]])


class TestBipartitePure:
    def test_rejects_nan_amplitude(self):
        with pytest.raises(InvariantViolation):
            BipartitePure(np.array([np.nan, 0, 0, 1.0]), (2, 2))

    @pytest.mark.parametrize("dims", [(-1, -4), (-2, -2)])
    def test_rejects_non_positive_dims(self, dims):
        with pytest.raises(InvariantViolation):
            BipartitePure(np.eye(4)[0], dims)


class TestEigHermitian:
    def test_diagonal_half_half(self):
        spec = eig_hermitian(diag_state(0.5, 0.5))
        assert np.allclose(spec.eigenvalues.weights, [0.5, 0.5])

    def test_rank_one_projector(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        spec = eig_hermitian(rho)
        assert np.allclose(spec.eigenvalues.weights, [1.0, 0.0], atol=1e-12)

    def test_diagonal_sorted_decreasing(self):
        spec = eig_hermitian(diag_state(0.2, 0.7, 0.1))
        assert np.allclose(spec.eigenvalues.weights, [0.7, 0.2, 0.1])

    def test_reconstruction(self, rng):
        for dim in (2, 3, 4, 8):
            rho = random_density(rng, dim)
            spec = eig_hermitian(rho)
            recon = (spec.eigenvectors * spec.eigenvalues.weights) @ spec.eigenvectors.conj().T
            assert np.max(np.abs(recon - rho.entries)) <= 1e-8

    def test_deterministic(self, rng):
        rho = random_density(rng, 4)
        a = eig_hermitian(rho)
        b = eig_hermitian(rho)
        assert np.array_equal(a.eigenvalues.weights, b.eigenvalues.weights)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestSpectrumCache:
    def test_computed_once_and_equal_to_eig_hermitian(self, rng):
        rho = random_density(rng, 3)
        assert rho.spectrum is rho.spectrum
        direct = eig_hermitian(rho)
        assert np.array_equal(rho.spectrum.eigenvalues.weights, direct.eigenvalues.weights)
        assert np.array_equal(rho.spectrum.eigenvectors, direct.eigenvectors)

    def test_shared_arrays_are_read_only(self, rng):
        spec = random_density(rng, 3).spectrum
        with pytest.raises(ValueError):
            spec.eigenvalues.weights[0] = 0.5
        with pytest.raises(ValueError):
            spec.eigenvectors[0, 0] = 1.0

    def test_entries_stay_frozen(self, rng):
        rho = random_density(rng, 2)
        assert rho.spectrum is not None
        with pytest.raises(FrozenInstanceError):
            rho.entries = np.eye(2) / 2


class TestEmbedding:
    def test_embed_classical_examples(self):
        for weights in ([1, 0], [0.5, 0.5], [0.2, 0.3, 0.5]):
            rho = embed_classical(Dist(weights))
            assert np.allclose(rho.entries, np.diag(weights))

    def test_embed_stochastic_matches_hand_built_kraus(self):
        # independently build the operators sqrt(M_ij) |j><i| and compare
        m = StochMatrix([[0.5, 0.5], [0.5, 0.5]])
        chan = embed_stochastic(m)
        rho = diag_state(1.0, 0.0)
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                b = np.zeros((2, 2), dtype=complex)
                b[j, i] = np.sqrt(m.entries[i, j])
                expected += b @ rho.entries @ b.conj().T
        assert np.allclose(apply_channel(chan, rho).entries, expected)
        assert np.allclose(expected, np.diag([0.5, 0.5]))

    def test_identity_embeds_to_identity_channel(self, rng):
        chan = embed_stochastic(StochMatrix(np.eye(2)))
        p = Dist(rng.dirichlet(np.ones(2)))
        out = apply_channel(chan, embed_classical(p))
        assert np.allclose(out.entries, np.diag(p.weights))

    def test_collapse_matrix_sends_everything_to_first_outcome(self, rng):
        chan = embed_stochastic(StochMatrix([[1, 0], [1, 0]]))
        rho = random_density(rng, 2)
        out = apply_channel(chan, rho)
        assert np.allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_kraus_count(self):
        chan = embed_stochastic(StochMatrix([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]))
        assert len(chan.kraus_ops) == 6
        assert (chan.in_dim, chan.out_dim) == (2, 3)

    def test_commutes_with_classical_action(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = Dist(rng.dirichlet(np.ones(n)))
            m = random_stochastic(rng, n, k)
            lhs = apply_channel(embed_stochastic(m), embed_classical(p))
            rhs = embed_classical(apply(p, m))
            assert np.max(np.abs(lhs.entries - rhs.entries)) <= 1e-10

    def test_functoriality_of_composition(self, rng):
        for _ in range(30):
            n, k, l = (int(rng.integers(1, 5)) for _ in range(3))
            p = Dist(rng.dirichlet(np.ones(n)))
            m = random_stochastic(rng, n, k)
            nmat = random_stochastic(rng, k, l)
            composed = StochMatrix(m.entries @ nmat.entries)
            rho = embed_classical(p)
            direct = apply_channel(embed_stochastic(composed), rho)
            staged = apply_channel(
                embed_stochastic(nmat), apply_channel(embed_stochastic(m), rho)
            )
            assert np.max(np.abs(direct.entries - staged.entries)) <= 1e-9


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 3)
        out = apply_channel(KrausChannel.identity(3), rho)
        assert np.allclose(out.entries, rho.entries)

    def test_measurement_kills_off_diagonals(self):
        chan = embed_stochastic(StochMatrix(np.eye(2)))
        rho = DensityMatrix(np.full((2, 2), 0.5))
        out = apply_channel(chan, rho)
        assert np.allclose(out.entries, np.diag([0.5, 0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_channel(KrausChannel.identity(2), diag_state(0.5, 0.25, 0.25))

    def test_output_is_valid_state(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            chan = embed_stochastic(random_stochastic(rng, n, k))
            out = apply_channel(chan, random_density(rng, n))
            assert abs(out.entries.trace().real - 1) <= 1e-10
            assert np.linalg.eigvalsh(out.entries).min() >= -1e-10


class TestIsUnital:
    def test_identity(self):
        assert is_unital(KrausChannel.identity(3))

    def test_doubly_stochastic_embedding(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            assert is_unital(embed_stochastic(random_uniform_matrix(rng, n)))

    def test_collapse_is_not_unital(self):
        assert not is_unital(embed_stochastic(StochMatrix([[1, 0], [1, 0]])))

    def test_unital_iff_uniform(self, rng):
        for _ in range(40):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            m = random_stochastic(rng, n, k)
            assert is_unital(embed_stochastic(m)) == is_uniform_matrix(m)


class TestEntropies:
    def test_pure_state_entropy_zero(self, rng):
        psi = random_pure(rng, (2, 2))
        assert spectral_entropy(projector(psi)) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = maximally_mixed(d)
            assert spectral_entropy(rho) == pytest.approx(np.log2(d), abs=1e-12)

    def test_matches_classical_example(self):
        assert spectral_entropy(diag_state(0.5, 0.25, 0.25)) == pytest.approx(1.5)

    def test_matches_shannon_on_embeddings(self, rng):
        for _ in range(20):
            p = Dist(rng.dirichlet(np.ones(4)))
            assert abs(spectral_entropy(embed_classical(p)) - shannon_entropy(p)) <= 1e-10

    def test_spectral_entropy_closed_form(self, rng):
        assert spectral_entropy(maximally_mixed(2)) == pytest.approx(1.0)
        assert spectral_entropy(diag_state(0.75, 0.25)) == pytest.approx(
            shannon_entropy(Dist([0.75, 0.25]))
        )
        psi = random_pure(rng, (2, 2))
        assert spectral_entropy(projector(psi)) == pytest.approx(0.0, abs=1e-9)


class TestMeasurementEntropySearch:
    def test_maximally_mixed_always_one_bit(self):
        assert measurement_entropy_search(diag_state(0.5, 0.5), 5, 3) == pytest.approx(1.0)

    def test_rotated_qubit_hits_spectral_value(self, rng):
        u = random_unitary(rng, 2)
        rho = DensityMatrix(u @ np.diag([0.9, 0.1]) @ u.conj().T)
        expected = shannon_entropy(Dist([0.9, 0.1]))
        assert measurement_entropy_search(rho, 10, 7) == pytest.approx(expected, abs=1e-9)

    def test_pure_state_gives_zero(self, rng):
        psi = random_pure(rng, (2, 2))
        assert measurement_entropy_search(projector(psi), 10, 5) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_never_beats_spectral_entropy(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            found = measurement_entropy_search(rho, 50, 11)
            assert found >= spectral_entropy(rho) - 1e-9

    def test_non_increasing_in_sample_count(self, rng):
        rho = random_density(rng, 3)
        values = [measurement_entropy_search(rho, s, 13) for s in (1, 5, 20, 50)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_requires_positive_samples(self):
        with pytest.raises(ValueError):
            measurement_entropy_search(diag_state(0.5, 0.5), 0, 1)

    def test_stack_is_the_least_of_one_basis_at_a_time(self, rng):
        # the bases one at a time, spectral first, in the C order of the stack
        for dim in (1, 2, 3, 4, 6):
            rho = random_density(rng, dim)
            for samples, seed in ((1, 0), (7, 3), (30, 9)):
                sampled = [haar_basis(dim, seed, k) for k in range(samples)]
                assert np.array_equal(haar_bases(dim, seed, samples), np.stack(sampled))
                bases = [rho.spectrum.eigenvectors, *sampled]
                each = [
                    shannon_entropy(basis_outcomes(rho, np.ascontiguousarray(b))) for b in bases
                ]
                found = measurement_entropy_search(rho, samples, seed)
                assert np.float64(found).tobytes() == np.float64(min(each)).tobytes()


class TestOutcomeRows:
    def test_rows_are_the_one_basis_outcomes(self, rng):
        for dim in (2, 3, 5):
            rho = random_density(rng, dim)
            bases = haar_bases(dim, 4, 12)
            assert np.array_equal(bases, np.stack([haar_basis(dim, 4, k) for k in range(12)]))
            rows = outcome_rows(rho, bases)
            assert not rows.flags.writeable
            for row, basis in zip(rows, bases):
                assert row.tobytes() == basis_outcomes(rho, basis).weights.tobytes()


class TestHaarBasis:
    def test_deterministic_per_seed_and_index(self):
        a = haar_bases(3, 42, 8)
        # bit for bit the basis drawn on its own, whatever the stack's size
        assert np.array_equal(a[7], haar_basis(3, 42, 7))
        assert np.array_equal(haar_bases(3, 42, 20)[:8], a)
        assert not np.allclose(a[6], a[7])
        assert not np.allclose(haar_bases(3, 43, 8)[7], a[7])

    def test_orthonormal(self):
        for dim in (1, 4):
            bases = haar_bases(dim, 1, 3)
            assert bases.shape == (3, dim, dim)
            gram = np.einsum("bki,bkj->bij", bases.conj(), bases)
            assert np.allclose(gram, np.eye(dim), atol=1e-12)
            assert np.array_equal(bases[2], haar_basis(dim, 1, 2))


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = DensityMatrix(np.kron(rho_a.entries, rho_b.entries))
        assert np.allclose(partial_trace(joint, (2, 3), "A").entries, rho_a.entries)
        assert np.allclose(partial_trace(joint, (2, 3), "B").entries, rho_b.entries)

    def test_bell_state_reduces_to_maximally_mixed(self):
        reduced = partial_trace(projector(bell_state()), (2, 2), "A")
        assert np.allclose(reduced.entries, np.eye(2) / 2)

    def test_diagonal_product(self):
        p, q = Dist([0.4, 0.6]), Dist([0.1, 0.2, 0.7])
        joint = DensityMatrix(
            np.kron(embed_classical(p).entries, embed_classical(q).entries)
        )
        assert np.allclose(partial_trace(joint, (2, 3), "B").entries, np.diag(q.weights))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(maximally_mixed(4), (2, 3), "A")


class TestSchmidt:
    def test_product_state(self):
        coeffs = schmidt_coefficients(product_state())
        assert np.allclose(coeffs.weights, [1, 0])
        assert schmidt_rank(product_state()) == 1

    def test_bell_state(self):
        coeffs = schmidt_coefficients(bell_state())
        assert np.allclose(coeffs.weights, [0.5, 0.5])
        assert schmidt_rank(bell_state()) == 2

    def test_three_level_maximally_entangled(self):
        coeffs = schmidt_coefficients(ghz3_state())
        assert np.allclose(coeffs.weights, np.ones(3) / 3)
        assert schmidt_rank(ghz3_state()) == 3

    def test_rank_invariant_under_local_unitaries(self, rng):
        for _ in range(10):
            psi = random_pure(rng, (2, 3))
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 3)
            rotated = BipartitePure(np.kron(u, v) @ psi.state_vector, (2, 3))
            assert schmidt_rank(rotated) == schmidt_rank(psi)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 4), (4, 2), (3, 3)])
    def test_matches_reduced_state_spectra(self, rng, dims):
        # the squared singular values against the spectra of both reduced
        # states, at full and deficient rank
        k = min(dims)
        for rank in range(1, k + 1):
            for _ in range(5):
                psi = low_rank_pure(rng, dims, rank)
                coeffs = schmidt_coefficients(psi).weights
                assert len(coeffs) == k
                for keep in ("A", "B"):
                    reduced = partial_trace(projector(psi), dims, keep)
                    spectrum = eig_hermitian(reduced).eigenvalues.weights
                    assert np.max(np.abs(spectrum[:k] - coeffs)) <= 1e-12
                    assert np.all(spectrum[k:] <= 1e-12)
                assert schmidt_rank(psi) == rank


class TestLoccConvertible:
    def test_reflexive(self, rng):
        psi = random_pure(rng, (2, 2))
        assert locc_convertible_pure(psi, psi)

    def test_bell_to_product(self):
        assert locc_convertible_pure(bell_state(), product_state())

    def test_product_to_bell_denied(self):
        assert not locc_convertible_pure(product_state(), bell_state())

    def test_padding_across_dims(self):
        # a 2x2 Bell pair converts to a product state on a larger system
        big_product = BipartitePure(
            np.eye(9, dtype=complex)[0], (3, 3)
        )
        assert locc_convertible_pure(bell_state(), big_product)

    def test_zero_padding_across_lengths(self):
        # Schmidt vectors (1) and (1/2, 1/2): the first, padded to (1, 0),
        # majorizes everything
        trivial = BipartitePure(np.ones(1), (1, 1))
        assert locc_convertible_pure(bell_state(), trivial)
        assert not locc_convertible_pure(trivial, bell_state())

    def test_unequal_schmidt_lengths_match_padded_reduced_spectra(self, rng):
        # independent path: descending partial sums of the zero-padded
        # spectra of the reduced states on A
        shapes = [(1, 2), (2, 2), (2, 3), (3, 3), (4, 2), (3, 4)]
        states = [
            low_rank_pure(rng, dims, int(rng.integers(1, min(dims) + 1)))
            for dims in shapes
            for _ in range(4)
        ]

        def partial_sums(psi, n):
            reduced = partial_trace(projector(psi), psi.dims, "A")
            w = eig_hermitian(reduced).eigenvalues.weights
            return np.cumsum(np.concatenate([w, np.zeros(n - len(w))]))

        hits = 0
        for phi in states:
            for psi in states:
                n = max(phi.dims[0], psi.dims[0])
                want = bool(np.all(partial_sums(phi, n) <= partial_sums(psi, n) + 1e-10))
                assert locc_convertible_pure(phi, psi) == want
                hits += want and len(schmidt_coefficients(phi)) != len(schmidt_coefficients(psi))
        assert hits > 0
