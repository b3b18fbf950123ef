"""Forward-difference operator, its square, commutators, and inverse kernels."""

import math

import numpy as np
import pytest

from padiclab import (
    FieldParams,
    assemble_DstarD,
    assemble_commutator,
    assemble_symmetrized_D,
    commutator_norm,
    commutator_row_norms,
    count_g,
    find_roots,
    hs_double_sum,
    hs_norm_Dg_inverse,
    hs_total_partial,
    kernel_frobenius_norm,
    kernel_rho_a_DFinv,
    regularizer_bt,
    rho_diag,
    singular_values_window,
    tree_window_f,
    tree_window_r,
)
from padiclab import TestFunction as PointFunction  # aliased so pytest does not collect it
from padiclab import operators
from padiclab import testfn_library as function_library
from padiclab.operators import _commutator_csr, _symmetrized_D_csr
from sparse_oracles import commutator_coo, sparse_row_norms, symmetrized_D_coo
from sturm_oracle import jacobi_D0, jacobi_lowest_eigs

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
P321 = FieldParams(3, 2, 1)
P511 = FieldParams(5, 1, 1)
ALL_PARAMS = [P211, P311, P221, P212]


def _lib(params):
    return {t.name: t for t in function_library(params)}


def _level_weights(window) -> np.ndarray:
    """The ball volume ``q_res**(-n)`` of each vertex: the inner-product weights."""
    q = float(window.params.q_res)
    return np.concatenate([np.full(window.level_size(n), q ** (-n)) for n in window.levels])


def _forward_difference(window) -> np.ndarray:
    """Reference ``D`` in the weighted (unsymmetrized) coordinates, vertex by
    vertex from its definition: ``p**(n/e)`` times the value minus the mean
    over the children, the deepest level extended by zero."""
    params = window.params
    q = params.q_res
    mat = np.zeros((window.total, window.total))
    for n in window.levels:
        start = window.level_slice(n).start
        for rank in range(window.level_size(n)):
            row = start + rank
            mat[row, row] = params.scale_float(n)
            if n < window.max_level:
                kids = window.level_slice(n + 1).start + rank * q
                mat[row, kids : kids + q] = -params.scale_float(n) / q
    return mat


class TestSymmetrizedD:
    def test_frozen_values(self):
        w = tree_window_r(P211, 1)
        s = 1.0 / math.sqrt(2.0)
        assert assemble_symmetrized_D(w).toarray().tolist() == [
            [1.0, -s, -s],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, 2.0],
        ]

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_kills_constants(self, params):
        """A constant, ``q_res**(-n/2)`` on level ``n`` in symmetrized
        coordinates, goes to zero to rounding on every row above the deepest level."""
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2)]:
            b = assemble_symmetrized_D(w)
            const = np.concatenate(
                [np.full(w.level_size(n), float(params.q_res) ** (-n / 2)) for n in w.levels]
            )
            rows = w.level_offsets[-2]
            out = (b @ const)[:rows]
            scale = (abs(b) @ const)[:rows]
            assert np.all(np.abs(out) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_matches_forward_difference(self, params):
        """The assembled matrix is the defined ``D`` under the similarity with
        the square roots of the ball volumes."""
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2)]:
            root = np.sqrt(_level_weights(w))
            expected = root[:, None] * _forward_difference(w) / root[None, :]
            got = assemble_symmetrized_D(w).toarray()
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


    @pytest.mark.parametrize("params", [*ALL_PARAMS, P511, P321])
    def test_csr_arrays_match_coo_reference(self, params):
        """The level-by-level CSR arrays, and the matrix wrapping them, equal
        the COO construction array for array, dtypes included."""
        for w in [tree_window_r(params, 2), tree_window_r(params, 4), tree_window_f(params, 1, 2)]:
            ref = symmetrized_D_coo(w)
            ref_arrays = (ref.data, ref.indices, ref.indptr)
            wrapped = assemble_symmetrized_D(w)
            for got in (_symmetrized_D_csr(w), (wrapped.data, wrapped.indices, wrapped.indptr)):
                for a, b in zip(got, ref_arrays):
                    assert a.dtype == b.dtype and np.array_equal(a, b), w


class TestAdjoint:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_adjointness(self, params, seed):
        """The transpose that :func:`assemble_DstarD` squares with, carried back
        through the weight similarity, is the adjoint of the defined ``D`` in
        the ball-volume inner product."""
        rng = np.random.default_rng(seed)
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 3)]:
            wts = _level_weights(w)
            root = np.sqrt(wts)
            phi = rng.normal(size=w.total)
            psi = rng.normal(size=w.total)
            adjoint_psi = (assemble_symmetrized_D(w).T @ (root * psi)) / root
            lhs = float(np.dot(wts * (_forward_difference(w) @ phi), psi))
            rhs = float(np.dot(wts * phi, adjoint_psi))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestDstarD:
    def test_frozen_eigenvalues_depth1(self):
        w = tree_window_r(P211, 1)
        eigs = np.sort(np.linalg.eigvalsh(assemble_DstarD(w).toarray()))
        expected = [3 - math.sqrt(5), 4.0, 3 + math.sqrt(5)]
        assert eigs == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_square_factors_through_symmetrized_D(self, params):
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2)]:
            sym = assemble_symmetrized_D(w)
            diff = sym.T @ sym - assemble_DstarD(w)
            assert diff.nnz == 0 or abs(diff.toarray()).max() < 1e-14

    @pytest.mark.parametrize(
        "params,N", [(P211, 3), (P311, 3), (P221, 3), (P212, 2)]
    )
    def test_block_decomposition(self, params, N):
        """The window square is unitarily a direct sum of scaled depth blocks.

        Eigenvalues must equal the multiset union over tail lengths m of
        count_g(m) copies of Q**m * eig(jacobi_D0(N + 1 - m)).
        """
        w = tree_window_r(params, N)
        direct = np.sort(np.linalg.eigvalsh(assemble_DstarD(w).toarray()))
        Q = float(params.Q)
        pred: list[float] = []
        for m in range(N + 1):
            block = np.linalg.eigvalsh(jacobi_D0(params, N + 1 - m))
            pred.extend(list(Q**m * block) * count_g(params, m))
        pred_arr = np.sort(pred)
        assert pred_arr.shape == direct.shape
        assert np.max(np.abs(direct - pred_arr) / np.abs(pred_arr)) < 1e-12

    def test_positive_semidefinite(self):
        w = tree_window_f(P212, 1, 2)
        eigs = np.linalg.eigvalsh(assemble_DstarD(w).toarray())
        assert eigs.min() >= -1e-12


class TestJacobi:
    def test_frozen_matrix(self):
        assert jacobi_D0(P211, 2).tolist() == [[1.0, -1.0], [-1.0, 5.0]]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            jacobi_D0(P211, 0)

    @pytest.mark.parametrize("params", [P211, P311, P221])
    def test_lowest_eig_matches_series_root(self, params):
        """Dual route: Sturm bisection on the truncated matrix vs the series root."""
        roots = find_roots(params, 2)
        for L in (40, 60):
            lam0 = jacobi_lowest_eigs(params, L, count=1)[0]
            assert float(lam0) == pytest.approx(float(roots.roots[0]), rel=1e-10)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            jacobi_lowest_eigs(P211, 5, count=6)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_float_eigvalsh_keeps_low_eigenvalues(self, p, e):
        """Float64 ``eigvalsh`` on the graded block vs the Sturm route.

        The validator solves the Haar blocks this way, so their low
        eigenvalues must stay accurate relative to themselves.  ``jacobi_D0``
        depends on ``(p, e)`` only, so ``f`` is not varied.
        """
        params = FieldParams(p, e, 1)
        for L in (5, 13):
            exact = np.array([float(v) for v in jacobi_lowest_eigs(params, L, count=5)])
            got = np.linalg.eigvalsh(jacobi_D0(params, L))[:5]
            assert np.max(np.abs(got - exact) / exact) <= 1e-13


class TestRho:
    def test_frozen_diag_abs_depth2(self):
        w = tree_window_r(P211, 2)
        a = _lib(P211)["abs"]
        assert rho_diag(w, a).tolist() == [1.0, 0.5, 1.0, 0.25, 0.5, 1.0, 1.0]

    def test_zero_center_convention(self):
        """The zero ball at level n is evaluated at its stand-in point pi**n."""
        w = tree_window_r(P311, 3)
        a = _lib(P311)["abs"]
        diag = rho_diag(w, a)
        for n in w.levels:
            zero_idx = w.level_slice(n).start
            assert diag[zero_idx] == pytest.approx(float(P311.p) ** (-n), rel=1e-15)


class TestCommutator:
    @pytest.mark.parametrize("params", [P211, P311, P221, P212, P321, P511])
    def test_norm_matches_dense_svd(self, params):
        """The row-norm certificate against a dense SVD of the assembled matrix."""
        w = tree_window_r(params, 5)
        for fn in function_library(params):
            dense = np.linalg.norm(assemble_commutator(w, fn).toarray(), 2)
            assert commutator_norm(w, fn) == pytest.approx(dense, rel=1e-13, abs=0.0), fn.name

    def test_row_norms_and_column_structure(self):
        w = tree_window_r(P311, 4)
        a = _lib(P311)["rand-depth3-seed7"]
        mat = assemble_commutator(w, a).toarray()
        assert np.count_nonzero(mat, axis=0).max() == 1
        np.testing.assert_allclose(
            commutator_row_norms(w, a), np.linalg.norm(mat, axis=1), rtol=1e-15
        )

    @pytest.mark.parametrize("params", [*ALL_PARAMS, P511, P321])
    def test_csr_arrays_match_coo_reference(self, params):
        """Every library function, unit-ball and ``M = 1`` windows: the CSR
        arrays and the wrapped matrix equal the COO construction after
        ``eliminate_zeros``, array for array, dtypes included."""
        for w in [tree_window_r(params, 4), tree_window_f(params, 1, 3)]:
            for fn in function_library(params):
                ref = commutator_coo(w, fn)
                ref_arrays = (ref.data, ref.indices, ref.indptr)
                wrapped = assemble_commutator(w, fn)
                assert wrapped.shape == ref.shape
                for got in (_commutator_csr(w, rho_diag(w, fn)),
                            (wrapped.data, wrapped.indices, wrapped.indptr)):
                    for a, b in zip(got, ref_arrays):
                        assert a.dtype == b.dtype and np.array_equal(a, b), (w, fn.name)

    @pytest.mark.parametrize("params", [P211, P212, FieldParams(7, 1, 1), FieldParams(2, 1, 3),
                                        FieldParams(3, 1, 2)])
    def test_row_norms_match_sparse_route(self, params):
        """``q_res`` 2, 4, 7, 8 and 9: the row norms read off the arrays against
        scipy's row sums of the squared matrix, on every library function."""
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 3)]:
            for fn in function_library(params):
                np.testing.assert_allclose(
                    commutator_row_norms(w, fn), sparse_row_norms(w, fn), rtol=1e-15, atol=0.0,
                    err_msg=fn.name,
                )

    def test_duplicated_column_refused(self, monkeypatch):
        """The disjoint-support certificate is checked on the index array."""

        def duplicated(window, diag):
            data, indices, indptr = _commutator_csr(window, diag)
            indices = indices.copy()
            indices[1] = indices[0]
            return data, indices, indptr

        monkeypatch.setattr(operators, "_commutator_csr", duplicated)
        w = tree_window_r(P311, 4)
        with pytest.raises(ValueError, match="^commutator column with two nonzeros$"):
            commutator_norm(w, _lib(P311)["abs"])

    def test_frozen_abs_norm(self):
        w = tree_window_r(P211, 8)
        assert commutator_norm(w, _lib(P211)["abs"]) == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0)), rel=1e-10
        )

    def test_constant_commutes(self):
        w = tree_window_r(P311, 4)
        a = _lib(P311)["const-1"]
        assert assemble_commutator(w, a).nnz == 0
        assert commutator_norm(w, a) == 0.0


class TestHilbertSchmidt:
    def test_frozen_closed_values(self):
        assert hs_norm_Dg_inverse(P211, 0) == pytest.approx(16.0 / 9.0, rel=1e-15)
        assert hs_norm_Dg_inverse(P211, 1) == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert hs_norm_Dg_inverse(P321, 0) == pytest.approx(2.25, rel=1e-12)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_double_sum_matches_closed_form(self, params):
        for m in range(6):
            closed = hs_norm_Dg_inverse(params, m)
            double = hs_double_sum(params, m)
            assert double == pytest.approx(closed, rel=1e-13)

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError):
            hs_norm_Dg_inverse(P211, -1)

    def test_total_converges_for_small_ef(self):
        assert hs_total_partial(P211, 60) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_constant_increments_for_large_ef(self):
        for params, expected in [(P212, 4.0 / 3.0), (P221, 2.0)]:
            for m in range(1, 8):
                inc = hs_total_partial(params, m) - hs_total_partial(params, m - 1)
                assert inc == pytest.approx(expected, rel=1e-12)


class TestInverseKernel:
    def test_closed_matches_assembled(self):
        for params in (P211, P212):
            w = tree_window_f(params, 2, 4)
            a = _lib(params)["decay-quadratic"]
            closed = kernel_frobenius_norm(w, a)
            direct = np.sqrt((kernel_rho_a_DFinv(w, a).data ** 2).sum())
            assert direct == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-3, 0.1, 10.0])
    def test_regularized_closed_matches_assembled(self, t):
        for params in (P211, P212):
            w = tree_window_f(params, 2, 4)
            a = _lib(params)["decay-quadratic"]
            closed = kernel_frobenius_norm(w, a, t=t)
            direct = np.sqrt((kernel_rho_a_DFinv(w, a, t=t).data ** 2).sum())
            assert direct == pytest.approx(closed, rel=1e-12)

    def test_decay_certificate_required(self):
        w = tree_window_f(P211, 1, 2)
        with pytest.raises(ValueError):
            kernel_rho_a_DFinv(w, _lib(P211)["abs"])

    def test_decay_exponent_threshold(self):
        # alpha = ef is admissible only when it exceeds max(1, ef/2).
        w211 = tree_window_f(P211, 1, 2)
        with pytest.raises(ValueError):
            kernel_frobenius_norm(w211, _lib(P211)["decay-ef"])
        w212 = tree_window_f(P212, 1, 2)
        assert kernel_frobenius_norm(w212, _lib(P212)["decay-ef"]) > 0.0

    def test_regularizer(self):
        with pytest.raises(ValueError):
            regularizer_bt(P211, 2.0, 0.0, 1)
        with pytest.raises(ValueError):
            regularizer_bt(P211, 2.0, -1.0, 1)
        assert regularizer_bt(P211, 2.0, 0.5, -3) == 1.0
        vals = [regularizer_bt(P211, 2.0, t, 5) for t in (1e-1, 1e-3, 1e-8)]
        assert vals == sorted(vals)  # weaker damping as t decreases
        assert vals[-1] == pytest.approx(1.0, abs=1e-4)

    def test_regularized_norm_below_plain(self):
        w = tree_window_f(P211, 2, 4)
        a = _lib(P211)["decay-quadratic"]
        plain = kernel_frobenius_norm(w, a)
        assert kernel_frobenius_norm(w, a, t=0.1) < plain
        assert kernel_frobenius_norm(w, a, t=1e-8) == pytest.approx(plain, rel=1e-6)

    def test_singular_values_descending(self):
        w = tree_window_f(P211, 2, 4)
        sv = singular_values_window(w, _lib(P211)["decay-quadratic"], 6)
        assert len(sv) == 6
        assert np.all(np.diff(sv) <= 1e-12)


class TestTestFunction:
    def test_callable_and_metadata(self):
        a = _lib(P211)["decay-quadratic"]
        assert a.decay_alpha == 2.0
        assert a.known_lipschitz is None or a.known_lipschitz >= 0
        w = tree_window_r(P211, 2)
        c = w.center(1, 1)
        assert isinstance(a(c), float)

    def test_custom_function(self):
        a = PointFunction(name="unit", evaluator=lambda start, width, ranks: np.ones(len(ranks)))
        w = tree_window_r(P211, 3)
        assert commutator_norm(w, a) == 0.0
