"""Ball-tree windows: level layout, vertex centers and Haar columns."""

import numpy as np
import pytest
import scipy.sparse as sp

from padiclab import (
    FieldParams,
    TreeWindow,
    assemble_DstarD,
    count_g,
    haar_columns,
    jacobi_D0,
    tree_window_f,
    tree_window_r,
)

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
ALL_PARAMS = [P211, P311, P221, P212]


def _haar_columns_coo(window, m):
    """Reference: the Haar columns assembled as COO triplets, then converted."""
    q = window.params.q_res
    L = window.max_level - window.min_level + 1 - m
    w = np.zeros((q, q))
    w[0] = 1.0 / np.sqrt(q)
    for k in range(1, q):
        norm = np.sqrt(k * (k + 1))
        w[k, :k] = 1.0 / norm
        w[k, k] = -k / norm
    rows, cols, data = [], [], []
    for l in range(L):
        seg = window.level_slice(window.min_level + m + l)
        ranks = np.arange(seg.stop - seg.start, dtype=np.int64)
        scale = 1.0 / np.sqrt(float(q) ** l)
        if m == 0:
            rows.append(seg.start + ranks)
            cols.append(np.full(ranks.size, l))
            data.append(np.full(ranks.size, scale))
            continue
        head, digit = np.divmod(ranks // q**l, q)
        for k in range(1, q):
            vals = w[k, digit]
            keep = vals != 0.0
            rows.append(seg.start + ranks[keep])
            cols.append((head[keep] * (q - 1) + k - 1) * L + l)
            data.append(vals[keep] * scale)
    copies = 1 if m == 0 else q ** (m - 1) * (q - 1)
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(window.total, copies * L),
    )
    return mat.tocsr()


class TestWindowShape:
    def test_r_window_sizes(self):
        w = tree_window_r(P211, 3)
        assert w.min_level == 0 and w.max_level == 3
        assert [w.level_size(n) for n in range(4)] == [1, 2, 4, 8]
        assert w.total == 15

    def test_f_window_sizes(self):
        w = tree_window_f(P211, 2, 3)
        assert w.min_level == -2 and w.max_level == 3
        assert w.level_size(-2) == 1
        assert w.level_size(3) == 2**5
        assert w.total == 63

    def test_level_slices_partition(self):
        w = tree_window_r(P212, 3)
        covered = []
        for n in w.levels:
            seg = w.level_slice(n)
            covered.extend(range(seg.start, seg.stop))
        assert covered == list(range(w.total))

    def test_center_round_trip(self):
        w = tree_window_f(P311, 1, 3)
        for n in w.levels:
            for rank in range(w.level_size(n)):
                c = w.center(n, rank)
                assert c.start == w.min_level
                assert c.start + len(c.digits) == n
                numeral = 0
                for d in c.digits:
                    numeral = numeral * P311.q_res + d
                assert numeral == rank

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_index_round_trip(self, params):
        """Global index = level offset + the base-``q_res`` numeral of the center."""
        q = params.q_res
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2)]:
            span = w.max_level - w.min_level
            assert w.level_offsets == tuple(sum(q**k for k in range(j)) for j in range(span + 2))
            seen = []
            for n in w.levels:
                seg = w.level_slice(n)
                for rank in range(w.level_size(n)):
                    numeral = 0
                    for d in w.center(n, rank).digits:
                        numeral = numeral * q + d
                    seen.append(seg.start + numeral)
            assert seen == list(range(w.total))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TreeWindow(P211, 2, 1),
            lambda: tree_window_f(P211, -1, 2),
            lambda: tree_window_r(P211, 2).level_size(3),
            lambda: tree_window_f(P211, 1, 2).level_size(-2),
            lambda: tree_window_r(P311, 2).center(2, 9),
            lambda: tree_window_r(P311, 2).center(1, -1),
        ],
        ids=["max-below-min", "negative-M", "level-past-window", "level-before-window",
             "rank-past-level", "negative-rank"],
    )
    def test_bad_windows_and_addresses_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestFamilyStructure:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_children_contiguous_and_parent_inverse(self, params):
        """The children of ``(n, r)`` are the ranks ``r*q_res + d`` at level
        ``n + 1``, each appending digit ``d``; every rank there has exactly one parent."""
        q = params.q_res
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2)]:
            for n in range(w.min_level, w.max_level):
                kids = []
                for rank in range(w.level_size(n)):
                    digits = w.center(n, rank).digits
                    for d in range(q):
                        kids.append(rank * q + d)
                        assert w.center(n + 1, kids[-1]).digits == (*digits, d)
                assert kids == list(range(w.level_size(n + 1)))

    def test_child_centers_extend_parent(self):
        w = tree_window_r(P212, 3)
        q = P212.q_res
        for n in range(3):
            for rank in range(w.level_size(n)):
                c = w.center(n, rank)
                for kid in range(rank * q, rank * q + q):
                    kc = w.center(n + 1, kid)
                    assert kc.digits[: len(c.digits)] == c.digits


class TestHaarColumns:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_orthonormal_basis_with_count_g_copies(self, params):
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2)]:
            parts = [haar_columns(w, m) for m in range(4)]
            for m, cols in enumerate(parts):
                assert cols.shape == (w.total, count_g(params, m) * (4 - m))
            basis = np.hstack([c.toarray() for c in parts])
            assert np.abs(basis.T @ basis - np.eye(w.total)).max() < 1e-15

    def test_frozen_columns(self):
        w = tree_window_r(P211, 2)
        # Radial copy: the normalised constant of each level.
        assert haar_columns(w, 0).toarray()[:, 2].tolist() == [0, 0, 0, 0.5, 0.5, 0.5, 0.5]
        # Tail length 2: one copy per level-1 vertex, +-1/sqrt(2) on its children.
        s = 1 / np.sqrt(2)
        assert haar_columns(w, 2).toarray().T.tolist() == [
            [0, 0, 0, s, -s, 0, 0],
            [0, 0, 0, 0, 0, s, -s],
        ]

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_every_copy_block_is_a_scaled_jacobi_block(self, params):
        """``V_m^T (D*D) V_m`` is block-diagonal with blocks ``Q**m jacobi_D0``."""
        N = 3
        w = tree_window_r(params, N)
        mat = assemble_DstarD(w)
        for m in range(N + 1):
            cols = haar_columns(w, m)
            L = N + 1 - m
            expected = np.kron(
                np.eye(count_g(params, m)), params.scale_float(2 * m) * jacobi_D0(params, L)
            )
            got = (cols.T @ mat @ cols).toarray()
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_tail_length_range(self):
        with pytest.raises(ValueError):
            haar_columns(tree_window_r(P211, 2), 3)

    @pytest.mark.parametrize("params", [*ALL_PARAMS, FieldParams(5, 1, 1)])
    def test_csr_arrays_match_coo_reference(self, params):
        windows = [tree_window_r(params, 2), tree_window_r(params, 3), tree_window_f(params, 1, 2)]
        for w in windows:
            for m in range(w.max_level - w.min_level + 1):
                got, ref = haar_columns(w, m), _haar_columns_coo(w, m)
                assert got.shape == ref.shape
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(got, name), getattr(ref, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (w, m, name)
