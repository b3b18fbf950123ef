"""Ball-tree windows: level layout, vertex centers, and the Haar-column oracle."""

import numpy as np
import pytest

from padiclab import (
    FieldParams,
    TreeWindow,
    assemble_DstarD,
    count_g,
    tree_window_f,
    tree_window_r,
)
from sparse_oracles import haar_columns, haar_columns_coo
from sturm_oracle import jacobi_D0

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
ALL_PARAMS = [P211, P311, P221, P212]


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
            lambda: tree_window_r(P211, 2)._replace(max_level=-1),
        ],
        ids=["max-below-min", "negative-M", "level-past-window", "level-before-window",
             "rank-past-level", "negative-rank", "replaced-max-below-min"],
    )
    def test_bad_windows_and_addresses_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_value_semantics(self):
        w = tree_window_f(P211, 1, 3)
        assert w == TreeWindow(P211, -1, 3) and hash(w) == hash(TreeWindow(P211, -1, 3))
        assert w != tree_window_r(P211, 3) and w != TreeWindow(P311, -1, 3)
        assert repr(w) == "TreeWindow(params=FieldParams(p=2, e=1, f=1), min_level=-1, max_level=3)"
        with pytest.raises(AttributeError):
            w.max_level = 4

    @pytest.mark.parametrize("params", [P211, P311, P212, FieldParams(7, 1, 1)],
                             ids=["q2", "q3", "q4", "q7"])
    def test_heap_identity(self, params):
        """The children of global index ``g``, found through ``level_slice``,
        are ``q_res*g + 1 .. q_res*g + q_res``, and the rows above the deepest
        level have as children exactly the vertices ``1 .. total - 1``."""
        q = params.q_res
        for w in [tree_window_r(params, 3), tree_window_f(params, 1, 2),
                  tree_window_f(params, 2, 1)]:
            for n in range(w.min_level, w.max_level):
                seg, child_seg = w.level_slice(n), w.level_slice(n + 1)
                for rank in range(w.level_size(n)):
                    g = seg.start + rank
                    kids = [child_seg.start + rank * q + d for d in range(q)]
                    assert kids == list(range(q * g + 1, q * g + q + 1)), (w, n, rank)
            assert q * w.level_offsets[-2] + 1 == w.total

    @pytest.mark.parametrize("n", [-2, -1, 3])
    def test_level_slice_outside_window_rejected(self, n):
        with pytest.raises(ValueError, match=f"level {n} outside window"):
            tree_window_r(P211, 2).level_slice(n)


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
                got, ref = haar_columns(w, m), haar_columns_coo(w, m)
                assert got.shape == ref.shape
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(got, name), getattr(ref, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (w, m, name)
