"""Analytic spectrum tables, matrix validation, Schatten sums, and zeta values."""

import numpy as np
import pytest
import scipy.sparse as sp

from padiclab import (
    CutoffError,
    assemble_DstarD,
    count_g,
    FieldParams,
    jacobi_D0,
    PoleError,
    factor_poles,
    factor_zeros,
    find_roots,
    full_spectrum,
    schatten_m_factor,
    schatten_partial,
    validate_spectrum,
    zeta_D0,
    zeta_DR,
    zeta_factor,
)
from padiclab import spectrum_zeta, tree_window_r
from padiclab.operators import _symmetrized_D_csr
from sparse_oracles import sparse_haar_blocks

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
P511 = FieldParams(5, 1, 1)
P321 = FieldParams(3, 2, 1)


class TestFullSpectrum:
    def test_row_grid_and_order(self):
        tab = full_spectrum(P211, 3, 5)
        assert len(tab.rows) == 24  # (m, n) on {0..3} x {0..5}
        values = [r.value for r in tab.rows]
        assert values == sorted(values)
        assert {(r.m, r.n) for r in tab.rows} == {
            (m, n) for m in range(4) for n in range(6)
        }

    def test_values_and_multiplicities(self):
        tab = full_spectrum(P211, 3, 5)
        roots = find_roots(P211, 5).values_float()
        by_mn = {(r.m, r.n): r for r in tab.rows}
        for (m, n), row in by_mn.items():
            assert row.lam == pytest.approx(roots[n], rel=1e-14)
            assert row.value == pytest.approx(4.0**m * roots[n], rel=1e-13)
        assert by_mn[(0, 0)].multiplicity == 1
        assert by_mn[(2, 0)].multiplicity == 2
        assert by_mn[(3, 0)].multiplicity == 4

    def test_expanded_respects_multiplicity(self):
        tab = full_spectrum(P211, 3, 3)
        vals = tab.values_expanded(8)
        assert len(vals) == 8
        assert np.all(np.diff(vals) >= 0)
        # The m=2 value appears twice in a row.
        assert vals[3] == vals[4]

    def test_scale_overflow_refused_before_roots(self, monkeypatch):
        def no_roots(*args, **kwargs):
            raise AssertionError("roots computed")

        monkeypatch.setattr(spectrum_zeta, "find_roots", no_roots)
        with pytest.raises(ValueError, match=r"^scale p\*\*\(2m/e\) at m = 512 is not"):
            full_spectrum(P211, 100000, 5)

    def test_frozen_lowest_eight(self):
        lam1, lam2, lam3 = 0.6931022916506043, 3.97368639844734, 15.999878007590887
        expected = sorted(
            [lam1, 4 * lam1, lam2, 16 * lam1, 16 * lam1, 4 * lam2, lam3, 64 * lam1]
        )
        got = full_spectrum(P211, 4, 4).values_expanded(8)
        assert got == pytest.approx(expected, rel=1e-12)


class TestValidateSpectrum:
    def test_passes_at_depth8(self):
        rep = validate_spectrum(P211, 8, with_drift=False)
        assert rep.passed
        assert rep.max_rel_error < 1e-6
        assert {c.name for c in rep.checks} == {
            "multiplicity-pattern",
            "block-scaling-identity",
            "eigenvalue-match",
            "reliability-cutoff",
        }
        assert rep.depths_used[-1] == 8
        assert len(rep.matrix_values) == 8 == len(rep.analytic_values)

    def test_injected_error_is_caught(self, analytic_error):
        """Negative control: a seeded relative error must trip the comparison."""
        rep = validate_spectrum(P211, 8, with_drift=False)
        assert not rep.passed
        assert rep.failures() == ["eigenvalue-match"]

    def test_cutoff_guard(self):
        with pytest.raises(CutoffError, match="cutoff too low"):
            validate_spectrum(P211, 4, k=9, with_drift=False)

    def test_drift_fields(self):
        rep = validate_spectrum(P211, 8, with_drift=True)
        assert rep.passed
        assert rep.drift_refined is not None and rep.drift_refined < 1e-6
        assert rep.drift_raw is not None

    def test_shallow_window_misses_tolerance(self):
        """Negative control: a too-shallow window must fail the comparison,
        not silently pass at a weaker accuracy."""
        rep = validate_spectrum(P211, 5, with_drift=False)
        assert rep.failures() == ["eigenvalue-match"]
        assert rep.max_rel_error > 1e-6

    def test_injected_coupling_breaks_block_identity(self, monkeypatch):
        """Negative control: one level-``N-1`` child coefficient of the assembled
        ``D``, perturbed by 1e-5 relative, must fail the block-structure gates
        (the copies below it no longer share their block) but not the
        eigenvalue match."""

        def perturbed(window):
            data, indices, indptr = _symmetrized_D_csr(window)
            row = window.level_slice(window.max_level - 1).start
            data = data.copy()
            data[indptr[row] + 2] *= 1.0 + 1e-5  # the digit-1 child of that row
            return data, indices, indptr

        monkeypatch.setattr(spectrum_zeta, "_symmetrized_D_csr", perturbed)
        rep = validate_spectrum(P211, 8, with_drift=False)
        assert rep.failures() == ["multiplicity-pattern", "block-scaling-identity"]
        assert rep.scaling_max_dev > 1e-6

    @pytest.mark.parametrize("level", [0, 3, 8])
    def test_moved_column_refused(self, monkeypatch, level):
        """A child (or, on the deepest level, the diagonal) stored one column
        off is refused before any block is read, naming its level."""

        def moved(window):
            data, indices, indptr = _symmetrized_D_csr(window)
            indices = indices.copy()
            indices[indptr[window.level_slice(level).start + 1] - 1] += 1
            return data, indices, indptr

        monkeypatch.setattr(spectrum_zeta, "_symmetrized_D_csr", moved)
        message = f"assembled D breaks the tree's row pattern at level {level}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_spectrum(P211, 8, with_drift=False)


# Every window the suite assembles through ``validate_spectrum``.
SUITE_WINDOWS = [
    (P211, 4), (P211, 5), (P211, 6), (P211, 8), (P211, 10),
    (P311, 10), (P221, 10), (P221, 12), (P221, 14), (P212, 5), (P212, 6),
]


class TestHaarBlocks:
    @pytest.mark.parametrize(
        "params,N",
        [(P212, 2), (FieldParams(3, 2, 1), 4), (FieldParams(5, 1, 1), 3), (P211, 6), (P311, 4),
         (P221, 6)],
    )
    def test_block_union_is_the_assembled_spectrum(self, params, N):
        """All copies' block spectra, with repetition, against a dense solve of
        the assembled window: measures the multiplicity pattern."""
        blocks = spectrum_zeta._haar_blocks(params, N)
        for m, spec in enumerate(blocks.spectra):
            assert spec.shape == (count_g(params, m), N + 1 - m)
        dense = np.linalg.eigvalsh(assemble_DstarD(tree_window_r(params, N)).toarray())
        union = np.sort(np.concatenate([s.ravel() for s in blocks.spectra]))
        assert union.shape == dense.shape
        assert np.max(np.abs(union - dense) / dense) <= 1e-12
        assert blocks.residual <= 1e-13

    @pytest.mark.parametrize("params,N", SUITE_WINDOWS)
    def test_invariant_subspace_residual(self, params, N):
        blocks = spectrum_zeta._haar_blocks(params, N)
        assert blocks.residual <= 1e-13
        assert blocks.scaling_dev <= 1e-13

    @pytest.mark.parametrize("params,N", [*SUITE_WINDOWS, (P212, 9)])
    def test_structure_figure_at_rounding_level(self, params, N):
        """The figure the block-scaling gate reads stays at rounding level as
        windows grow: sums over contiguous subtree axes, not long sparse products."""
        blocks = spectrum_zeta._haar_blocks(params, N)
        assert max(blocks.residual, blocks.scaling_dev) <= 1e-14

    @pytest.mark.parametrize("params", [P211, P311, P221, P212, P511, P321])
    @pytest.mark.parametrize("N", range(4, 9))
    def test_blocks_match_sparse_reader(self, params, N):
        """Level blocks and their spectra against ``V^T (B^T B) V`` from scipy
        products, 1e-13 relative, or the sparse reader's own deviation from the
        closed-form Jacobi blocks where that is larger (it sums the
        ``q_res**(l+1)`` terms of an entry in sequence)."""
        window = tree_window_r(params, N)
        reference, _, _ = sparse_haar_blocks(params, N)
        for m, (blocks, _) in enumerate(spectrum_zeta._copy_blocks(window)):
            ref = reference[m]
            exact = params.scale_float(2 * m) * jacobi_D0(params, N + 1 - m)
            tol = max(1e-13, 2 * np.abs(ref - exact).max() / np.abs(exact).max())
            assert blocks.shape == ref.shape
            assert np.abs(blocks - ref).max() <= tol * np.abs(ref).max(), m
            got, want = np.linalg.eigvalsh(blocks), np.linalg.eigvalsh(ref)
            assert np.max(np.abs(got - want) / want) <= tol, m
            assert np.abs(blocks - exact).max() <= 1e-15 * np.abs(exact).max() * (N + 1)

    @pytest.mark.parametrize("params", [P211, P311, P212, P321])
    def test_perturbed_operator_matches_sparse_reader(self, params, monkeypatch):
        """Every stored coefficient of ``B`` perturbed by about 1e-3: blocks and
        per-``m`` residuals of the level reads against the sparse products of
        the same ``B``.  No term of the residual vanishes here, so each one the
        level reads form (the parent row, the levels above and below) counts."""
        N = 5
        window = tree_window_r(params, N)
        data, indices, indptr = _symmetrized_D_csr(window)
        rng = np.random.default_rng(N)
        arrays = (data * (1.0 + 1e-3 * rng.standard_normal(data.size)), indices, indptr)
        monkeypatch.setattr(spectrum_zeta, "_symmetrized_D_csr", lambda w: arrays)
        ref_blocks, ref_residuals, _ = sparse_haar_blocks(
            params, N, sp.csr_matrix(arrays, shape=(window.total, window.total))
        )
        for m, (blocks, residual) in enumerate(spectrum_zeta._copy_blocks(window)):
            ref = ref_blocks[m]
            assert np.abs(blocks - ref).max() <= 1e-13 * np.abs(ref).max(), m
            assert 1e-5 < residual == pytest.approx(ref_residuals[m], rel=1e-9), m


class TestSchatten:
    def test_frozen_m_factor(self):
        assert schatten_m_factor(P211, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            schatten_m_factor(P211, 0.5)
        with pytest.raises(PoleError):
            schatten_m_factor(P212, 1.0)  # ef/2 = 1

    def test_m_factor_matches_partial_sums(self):
        closed = schatten_m_factor(P211, 1.25)
        partial = sum(
            count_g(P211, m) * (4.0**m) ** (-1.25) for m in range(0, 200)
        )
        assert closed == pytest.approx(partial, rel=1e-13)

    def test_long_truncated_sum_stays_finite(self):
        """At m = 1100, ``count_g(m)`` is an int past the float range; the
        truncated sum must still reach the closed form."""
        closed = schatten_m_factor(P211, 0.75)
        assert schatten_m_factor(P211, 0.75, m_max=1100) == pytest.approx(closed, rel=1e-13)

    def test_partial_sums_converge_above_exponent(self):
        s = 2.0
        vals = [schatten_partial(P211, s, 20, n_max) for n_max in (10, 20, 40)]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
        assert abs(vals[2] - vals[1]) < 1e-10

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_nonpositive_s_rejected(self, s):
        with pytest.raises(ValueError):
            schatten_partial(P211, s, 4, 4)


class TestZetaD0:
    def test_domain_guards(self):
        with pytest.raises(ValueError):
            zeta_D0(P211, -1.0)
        with pytest.raises(ValueError):
            zeta_D0(P221, 2.0, n_roots=1)  # degenerate tail bound

    def test_root_count_guard(self):
        with pytest.raises(ValueError, match="at least one root"):
            zeta_D0(P211, 2.0, n_roots=0)

    def test_tail_bound_honored(self):
        few = zeta_D0(P211, 1.5, n_roots=8)
        many = zeta_D0(P211, 1.5, n_roots=25)
        assert abs(few.value - many.value) <= few.tail_bound
        assert many.tail_bound < few.tail_bound

    def test_sums_only_the_requested_roots(self):
        # A longer cached table must not leak extra roots into the sum.
        roots = find_roots(P311, 10).roots
        z = zeta_D0(P311, 2.0, n_roots=3)
        assert z.n_roots_used == 3
        assert z.value.real == pytest.approx(float(sum(r**-2 for r in roots[:3])), rel=1e-14)

    def test_real_positive_on_real_axis(self):
        z = zeta_D0(P311, 2.0)
        assert z.value.imag == pytest.approx(0.0, abs=1e-15)
        assert z.value.real > 0


class TestZetaDR:
    def test_factor_matches_direct(self):
        """The rational factor against the truncated multiplicity sum."""
        for s in (1.0, 2.0, 3.5):
            a = zeta_DR(P211, s)
            b = schatten_m_factor(P211, s, m_max=200) * zeta_D0(P211, s).value
            assert abs(a.value - b) <= 1e-12 * abs(a.value)

    def test_frozen_value_at_one(self):
        # Coincides with the total Hilbert-Schmidt mass for these parameters.
        assert zeta_DR(P211, 1.0).value.real == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_pole_at_half_ef(self):
        with pytest.raises(PoleError):
            zeta_factor(P211, 0.5)
        with pytest.raises(PoleError):
            zeta_DR(P212, 1.0)


class TestFactorLattice:
    def test_frozen_poles_and_zeros(self):
        poles = factor_poles(P211, range(-1, 2))
        assert poles[1] == pytest.approx(0.5 + 0j, abs=1e-15)
        assert poles[0].imag == pytest.approx(4.532360141827194, rel=1e-12)
        zeros = factor_zeros(P211, range(0, 2))
        assert zeros[0] == 0j
        assert zeros[1].imag == pytest.approx(4.532360141827194, rel=1e-12)

    def test_factor_vanishes_at_zero_lattice(self):
        z = factor_zeros(P211, range(1, 2))[0]
        assert abs(zeta_factor(P211, z)) < 1e-12

    def test_factor_raises_at_pole_lattice(self):
        for s in factor_poles(P211, range(0, 2)):
            with pytest.raises(PoleError):
                zeta_factor(P211, s)
