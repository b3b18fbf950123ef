"""Analytic spectrum tables, matrix validation, Schatten sums, and zeta values."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp

from padiclab import (
    CutoffError,
    assemble_DstarD,
    count_g,
    FieldParams,
    PoleError,
    SpectrumRow,
    SpectrumTable,
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
from padiclab import operators, spectrum_zeta, tree_window_r, validation
from padiclab.operators import _symmetrized_D_csr
from mpf_oracle import zeta_sum
from padiclab.qspecial import Dyadic
from sparse_oracles import sparse_haar_blocks
from sturm_oracle import jacobi_D0

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

    def test_expanded_on_built_table(self):
        """Rows repeat by multiplicity in row order, and ``k`` cuts the list,
        also inside a row's copies."""
        rows = (SpectrumRow(0, 0, 0.5, 0.5, 1), SpectrumRow(1, 0, 0.5, 2.0, 3),
                SpectrumRow(0, 1, 4.0, 4.0, 1))
        table = SpectrumTable(P211, rows)
        assert table.values_expanded().tolist() == [0.5, 2.0, 2.0, 2.0, 4.0]
        assert table.values_expanded(3).tolist() == [0.5, 2.0, 2.0]
        assert table.values_expanded(9).tolist() == [0.5, 2.0, 2.0, 2.0, 4.0]
        assert SpectrumTable(P211, ()).values_expanded(2).tolist() == []
        assert table == SpectrumTable(params=P211, rows=rows)
        assert repr(rows[0]) == "SpectrumRow(m=0, n=0, lam=0.5, value=0.5, multiplicity=1)"
        with pytest.raises(AttributeError):
            table.rows = ()

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
        assert rep.checks[2].detail == "k=8 smallest, boundary error removed by stencil extrapolation"

    def test_shallow_window_names_its_cause(self):
        """As ``q -> 1`` the default depth is too shallow: at (2,4,1), depth 10,
        the refined lowest eigenvalue still moves by about the error (2.11e-5
        against 2.45e-5) from depth 10 to 12, and the failed row says so."""
        rep = validate_spectrum(FieldParams(2, 4, 1), 10)
        assert rep.failures() == ["eigenvalue-match"]
        assert rep.max_rel_error == pytest.approx(2.45e-5, rel=1e-3)
        assert rep.checks[2].detail == (
            "k=8 smallest, boundary error removed by stencil extrapolation; "
            "drift-refined 2.11e-05 from depth 10 to 12: the window is likely too shallow"
        )

    def test_mismatch_at_a_settled_depth_is_not_blamed_on_depth(self, analytic_error):
        """Negative control with drift measured: the refined eigenvalue has
        settled, so the failed row does not call the window shallow."""
        rep = validate_spectrum(P211, 8)
        assert rep.failures() == ["eigenvalue-match"]
        assert rep.drift_refined < 1e-6
        assert rep.checks[2].detail.endswith(": depth is an unlikely cause")

    def test_validation_names_served_by_spectrum_zeta(self):
        for name in ("CheckResult", "ValidationReport", "validate_spectrum"):
            assert getattr(spectrum_zeta, name) is getattr(validation, name)
        with pytest.raises(AttributeError, match="has no attribute '_haar_blocks'"):
            spectrum_zeta._haar_blocks

    def test_injected_coupling_breaks_block_identity(self, monkeypatch):
        """Negative control: one level-``N-1`` child coefficient of the assembled
        ``D``, perturbed by 1e-5 relative, must fail the block-structure gates
        (the copies below it no longer share their block) but not the
        eigenvalue match.  The multiplicity detail counts the one perturbed
        copy of each ``m = 4..7`` out, whichever copy it is (here copy 0)."""

        def perturbed(window):
            data, indices, indptr = _symmetrized_D_csr(window)
            row = window.level_slice(window.max_level - 1).start
            data = data.copy()
            data[indptr[row] + 2] *= 1.0 + 1e-5  # the digit-1 child of that row
            return data, indices, indptr

        monkeypatch.setattr(operators, "_symmetrized_D_csr", perturbed)
        rep = validate_spectrum(P211, 8, with_drift=False)
        assert rep.failures() == ["multiplicity-pattern", "block-scaling-identity"]
        assert rep.scaling_max_dev > 1e-6
        assert rep.checks[0].detail == "; ".join(
            f"m={m}: {2 ** (m - 1) - 1} of {2 ** (m - 1)} copies match p^(2m/e) x radial"
            for m in range(4, 8)
        )

    @pytest.mark.parametrize("level", [0, 3, 8])
    def test_moved_column_refused(self, monkeypatch, level):
        """A child (or, on the deepest level, the diagonal) stored one column
        off is refused before any block is read, naming its level."""

        def moved(window):
            data, indices, indptr = _symmetrized_D_csr(window)
            indices = indices.copy()
            indices[indptr[window.level_slice(level).start + 1] - 1] += 1
            return data, indices, indptr

        monkeypatch.setattr(operators, "_symmetrized_D_csr", moved)
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
        """Copy 0's block spectrum of each tail length, repeated by its measured
        copy count, against a dense solve of the assembled window: the counts
        are the multiplicity pattern, and the window's lowest eigenvalue is
        the radial block's."""
        blocks = validation._haar_blocks(params, N)
        for m, (spec, copies) in enumerate(zip(blocks.spectra, blocks.copies)):
            assert spec.shape == (N + 1 - m,)
            assert copies == count_g(params, m)
        dense = np.linalg.eigvalsh(assemble_DstarD(tree_window_r(params, N)).toarray())
        union = np.sort(np.concatenate(
            [np.tile(s, c) for s, c in zip(blocks.spectra, blocks.copies)]))
        assert union.shape == dense.shape
        assert np.max(np.abs(union - dense) / dense) <= 1e-12
        assert union[0] == blocks.spectra[0][0]  # so dense[0] matches it to 1e-12
        assert blocks.residual <= 1e-13

    @pytest.mark.parametrize("params,N", SUITE_WINDOWS)
    def test_invariant_subspace_residual(self, params, N):
        blocks = validation._haar_blocks(params, N)
        assert blocks.residual <= 1e-13
        assert blocks.scaling_dev <= 1e-13

    @pytest.mark.parametrize("params,N", [*SUITE_WINDOWS, (P212, 9)])
    def test_structure_figure_at_rounding_level(self, params, N):
        """The figure the block-scaling gate reads stays at rounding level as
        windows grow: sums over contiguous subtree axes, not long sparse products."""
        blocks = validation._haar_blocks(params, N)
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
        for m, (blocks, _) in enumerate(validation._copy_blocks(window)):
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
        monkeypatch.setattr(operators, "_symmetrized_D_csr", lambda w: arrays)
        ref_blocks, ref_residuals, _ = sparse_haar_blocks(
            params, N, sp.csr_matrix(arrays, shape=(window.total, window.total))
        )
        for m, (blocks, residual) in enumerate(validation._copy_blocks(window)):
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

    def test_truncated_sum_past_float_range_is_a_pole_error(self):
        """Below the pole ``r**m`` overflows; the truncated sum and the
        partial trace refuse with the closed form's ``PoleError``."""
        with pytest.raises(PoleError, match=r"ef/2 = 0\.5 \(got s=0\.1\)"):
            schatten_m_factor(P211, 0.1, m_max=2000)
        with pytest.raises(PoleError, match=r"ef/2 = 0\.5 \(got s=0\.1\)"):
            schatten_partial(P211, 0.1, 2000, 3)
        assert math.isfinite(schatten_m_factor(P211, 0.1, m_max=1000))

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
        # A longer table certified first must not leak extra roots into the sum.
        roots = find_roots(P311, 10).roots
        z = zeta_D0(P311, 2.0, n_roots=3)
        assert z.n_roots_used == 3
        assert z.value.real == pytest.approx(float(sum(mp.power(r, -2) for r in roots[:3])), rel=1e-14)

    def test_real_positive_on_real_axis(self):
        z = zeta_D0(P311, 2.0)
        assert z.value.imag == pytest.approx(0.0, abs=1e-15)
        assert z.value.real > 0


LATTICE = [float(k) for k in range(1, 13)] + [k / 2 for k in range(1, 24, 2)]
ROOT_GRID = [FieldParams(p, e, f) for p in (2, 3, 5, 7) for e in range(1, 9) for f in (1, 2)]


def _root_power_sums(q, k_max: int) -> list:
    """``sum_n lambda_n**-k`` for ``k = 1..k_max`` from the coefficients of
    ``F(z) = sum a_k z**k = prod (1 - z/lambda_n)`` (entire of order 0), by
    Newton's identities: ``p_1 = -a_1``, ``p_k = -k a_k - sum_(i<k) a_i p_(k-i)``.
    Exact for a :class:`Fraction` ``q``; else in the arithmetic of ``q``."""
    a = [1]
    for k in range(1, k_max + 1):
        a.append(-a[-1] * q ** (k - 1) / (1 - q**k) ** 2)
    sums = []
    for k in range(1, k_max + 1):
        sums.append(-k * a[k] - sum(a[i] * sums[k - i - 1] for i in range(1, k)))
    return sums


class TestZetaClosedForm:
    """``zeta_D0`` at ``s = 1..8`` against the root power sums that Newton's
    identities give from the series coefficients alone, with no root found:
    exact fractions where ``q`` is rational (``e`` in {1, 2}), else 60 digits."""

    def test_exact_fractions(self):
        assert _root_power_sums(Fraction(1, 4), 2) == [Fraction(16, 9), Fraction(4352, 2025)]
        assert _root_power_sums(Fraction(1, 3), 2)[1] == Fraction(405, 128)

    @pytest.mark.parametrize("params", ROOT_GRID, ids=str)
    def test_value_within_its_tail_bound(self, params):
        """``|closed - value| <= tail_bound + 2 ulp(value)``: the truncated
        root sum plus its certified tail bound brackets the closed form."""
        exact = Fraction if params.e <= 2 else mp.mpf
        with mp.workdps(60):
            q = exact(1, params.p ** (2 // params.e)) if params.e <= 2 else \
                mp.power(params.p, mp.mpf(-2) / params.e)
            closed = _root_power_sums(q, 8)
        for s, want in enumerate(closed, start=1):
            got = zeta_D0(params, float(s))
            assert got.value.imag == 0.0, s
            value = got.value.real
            with mp.workdps(60):
                gap = abs(exact(value) - want)
                slack = exact(got.tail_bound) + 2 * exact(math.ulp(value))
                assert gap <= slack, (s, float(gap), got.tail_bound)


class TestZetaLatticeSum:
    """At an integer or half-integer ``s`` the root sum is formed in Python
    integers, and must equal mpmath's ``fsum`` of ``mp.power`` bit for bit."""

    @staticmethod
    def _branches(monkeypatch) -> set:
        """Record which branch of mpmath's ``mpf_pow_int`` each term takes."""
        seen = set()
        inverse_power = spectrum_zeta._inverse_power

        def spy(man, exp, n):
            seen.add("n=1" if n == 1 else "n=2" if n == 2 else
                     "exact" if man.bit_length() * n < 1000 else "binary")
            return inverse_power(man, exp, n)

        monkeypatch.setattr(spectrum_zeta, "_inverse_power", spy)
        return seen

    def test_bit_identical_to_mpmath_over_the_root_grid(self, monkeypatch):
        """Every prefix of the roots 0..5 of every grid set, and the six roots
        in descending order (each term then outgrows the sum, which ``fsum``
        drops once it is over 106 bits below), at ``s = 1..12`` and
        ``s = k/2`` for odd ``k <= 23``."""
        seen = self._branches(monkeypatch)
        mismatches = []
        for params in ROOT_GRID:
            roots = find_roots(params, 5).roots
            for terms in [roots[:k] for k in range(1, len(roots) + 1)] + [roots[::-1]]:
                for s in LATTICE:
                    got = spectrum_zeta._lattice_sum(terms, complex(s))
                    if repr(got) != repr(zeta_sum(terms, s)):
                        mismatches.append((params, terms, s))
        assert mismatches == []
        assert seen == {"n=1", "n=2", "exact", "binary"}

    @pytest.mark.parametrize("s", LATTICE)
    def test_bit_identical_at_the_float_range_ends(self, s):
        """The roots of (7,1,1) scaled by a power of two so that the sum is
        subnormal (``ldexp`` rounds it again), near the largest float, or
        past it (``inf``, as mpmath's ``to_float``)."""
        roots = find_roots(FieldParams(7, 1, 1), 5).roots
        for target in (-1070, -1040, 1020, 1030):
            shift = round(-target / s)
            scaled = [Dyadic(r.man, r.exp + shift) for r in roots]
            got = spectrum_zeta._lattice_sum(scaled, complex(s))
            assert repr(got) == repr(zeta_sum(scaled, s)), target
        tiny = [Dyadic(r.man, r.exp + round(1070 / s)) for r in roots]
        assert 0.0 < spectrum_zeta._lattice_sum(tiny, complex(s)).real < 2.0**-1022

    @pytest.mark.parametrize("order", [1, -1], ids=["descending", "ascending"])
    def test_fsum_drop_rule_at_a_tie(self, order):
        """``1 + 2**-53`` is a tie at 53 bits, so a term ``2**-(53 + j)``
        decides the rounding if it is kept; ``fsum`` drops it once it is more
        than 106 bits below the running sum (or, added first, replaces it)."""
        values = set()
        for j in range(100, 116):
            roots = [Dyadic(1, 0), Dyadic(1, 53), Dyadic(1, 53 + j)][::order]
            got = spectrum_zeta._lattice_sum(roots, 1 + 0j)
            assert repr(got) == repr(zeta_sum(roots, 1)), j
            values.add(got)
        assert values == {1 + 0j, 1 + 2.0**-52 + 0j}

    @pytest.mark.parametrize("s", [0.25, 1.75, math.pi, 2 + 1j, 1e-3j + 2])
    def test_off_the_lattice_left_to_mpmath(self, s):
        roots = find_roots(P311, 5).roots
        assert spectrum_zeta._lattice_sum(roots, complex(s)) is None
        assert zeta_D0(P311, s, n_roots=6).value == zeta_sum(roots, s)

    def test_caller_precision_ignored(self):
        """Every route sums at 53 bits whatever ``mp.dps`` the caller set."""
        points = [*range(1, 9), 2.5, 2.25, 1.5 + 2j]
        before = [zeta_D0(P311, s, 21).value for s in points]
        with mp.workdps(50):
            after = [zeta_D0(P311, s, 21).value for s in points]
        assert [repr(v) for v in after] == [repr(v) for v in before]


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


def _numpy_zeta_factor(params, s):
    """The factor in numpy complex arithmetic, as it was computed before it
    moved to ``math`` and ``cmath``; a pole is returned as ``None``."""
    s = complex(s)
    lp = np.log(float(params.p))
    num = 1.0 - np.exp(-2.0 * s * lp / params.e)
    den = 1.0 - np.exp((params.f - 2.0 * s / params.e) * lp)
    return None if abs(den) <= 1e-12 else complex(num / den)


class TestFactorMatchesNumpy:
    """``zeta_factor`` runs without numpy but must round exactly as numpy's
    complex exp and division did: ``zeta`` output is compared byte for byte."""

    @pytest.mark.parametrize("params", [P211, P311, P221, P212, P511, P321,
                                        FieldParams(7, 3, 2), FieldParams(2, 8, 1)], ids=str)
    def test_real_and_complex_grid(self, params):
        grid = [k / 8 for k in range(-40, 161)]
        grid += [complex(x / 4, y / 3) for x in range(-8, 33) for y in range(-12, 13)]
        for s in grid:
            want = _numpy_zeta_factor(params, s)
            try:
                got = zeta_factor(params, s)
            except PoleError:
                got = None
            assert repr(got) == repr(want), s

    @pytest.mark.parametrize("params", [FieldParams(2, 1, 1100), FieldParams(3, 2, 700),
                                        FieldParams(7, 5, 400)], ids=str)
    def test_exp_past_the_float_range(self, params):
        """``f ln p`` above 709: numpy's exp overflows to infinity where
        ``cmath.exp`` raises.  On the real axis the factor is numpy's signed
        zero bit for bit; off it every infinite or zero part is numpy's, and
        a finite part within 2 ulps of it."""
        grid = [k / 4 for k in range(1, 41)]
        grid += [complex(x / 4, y / 3) for x in range(-8, 33) for y in range(-12, 13)]
        for s in grid:
            with np.errstate(over="ignore", invalid="ignore"):
                want = _numpy_zeta_factor(params, s)
            got = zeta_factor(params, s)
            if isinstance(s, float):
                assert repr(got) == repr(want), s
                continue
            for a, b in ((got.real, want.real), (got.imag, want.imag)):
                if math.isfinite(b) and b != 0.0:
                    assert abs(a - b) <= 2 * math.ulp(b), s
                else:
                    assert repr(a) == repr(b), s

    def test_quotient_is_numpy_division(self):
        rng = np.random.default_rng(12)
        parts = rng.uniform(-10, 10, (4, 5000)) * 10.0 ** rng.integers(-6, 7, (4, 5000))
        parts[3, :500] = 0.0  # real divisors
        parts[1, 500:1000] = 0.0  # real dividends
        for ar, ai, br, bi in parts.T:
            a, b = complex(ar, ai), complex(br, bi)
            assert repr(spectrum_zeta._quotient(a, b)) == repr(complex(np.complex128(a) / b))


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
