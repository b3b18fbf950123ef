"""Ball-tree windows: addressing, weights, and the weighted inner product."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import (
    FieldParams,
    WeightedVector,
    assemble_DstarD,
    children,
    count_g,
    haar_columns,
    jacobi_D0,
    tree_window_f,
    tree_window_r,
    weighted_inner,
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

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_index_round_trip(self, params):
        w = tree_window_r(params, 3)
        for idx in range(w.total):
            n, rank = w.level_rank(idx)
            assert w.index(n, rank) == idx

    def test_center_round_trip(self):
        w = tree_window_f(P311, 1, 3)
        for n in w.levels:
            for rank in range(w.level_size(n)):
                c = w.center(n, rank)
                assert c.start == w.min_level
                assert c.depth == n
                assert w.rank_of_center(c) == (n, rank)


class TestFamilyStructure:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_children_contiguous_and_parent_inverse(self, params):
        w = tree_window_r(params, 3)
        q = params.q_res
        for n in range(3):
            for rank in range(w.level_size(n)):
                kids = w.children_ranks(n, rank)
                assert list(kids) == list(range(rank * q, (rank + 1) * q))
                for kid in kids:
                    assert w.parent_rank(n + 1, kid) == rank

    def test_children_global_indices(self):
        w = tree_window_r(P211, 2)
        assert children(w, 0) == [1, 2]
        assert children(w, 1) == [3, 4]
        # Deepest level has no children inside the window.
        assert children(w, w.index(2, 3)) == []

    def test_child_centers_extend_parent(self):
        w = tree_window_r(P212, 3)
        for n in range(3):
            for rank in range(w.level_size(n)):
                c = w.center(n, rank)
                for kid in w.children_ranks(n, rank):
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


class TestWeights:
    def test_frozen_values(self):
        w = tree_window_r(P211, 3)
        assert w.weight(0) == Fraction(1)
        assert w.weight(3) == Fraction(1, 8)
        assert tree_window_r(P311, 2).weight(2) == Fraction(1, 9)
        assert tree_window_f(P211, 2, 3).weight(-2) == Fraction(4)
        assert tree_window_r(P212, 2).weight(2) == Fraction(1, 16)

    def test_weight_float_matches_fraction(self):
        w = tree_window_f(P212, 2, 4)
        for n in w.levels:
            assert w.weight_float(n) == pytest.approx(float(w.weight(n)), rel=1e-15)


class TestWeightedInner:
    def test_frozen_value(self):
        w = tree_window_r(P211, 3)
        phi = np.zeros(w.total)
        phi[w.index(2, 1)] = 1.0
        v = WeightedVector(w, phi)
        assert weighted_inner(v, v) == 0.25

    def test_shape_validation(self):
        w = tree_window_r(P211, 2)
        with pytest.raises(ValueError):
            WeightedVector(w, np.zeros(w.total + 1))

    def test_window_mismatch(self):
        w1 = tree_window_r(P211, 2)
        w2 = tree_window_r(P211, 3)
        with pytest.raises(ValueError):
            weighted_inner(
                WeightedVector(w1, np.zeros(w1.total)),
                WeightedVector(w2, np.zeros(w2.total)),
            )

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_sesquilinearity_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        w = tree_window_r(P211, 3)
        a = rng.normal(size=w.total)
        b = rng.normal(size=w.total)
        va, vb = WeightedVector(w, a), WeightedVector(w, b)
        vab = WeightedVector(w, a + b)
        lhs = weighted_inner(vab, vab)
        rhs = (
            weighted_inner(va, va)
            + weighted_inner(vb, vb)
            + weighted_inner(va, vb)
            + weighted_inner(vb, va)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert weighted_inner(va, va) >= 0
