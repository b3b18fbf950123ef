"""The Sturm oracle: exact low eigenvalues of the truncated Jacobi block.

:func:`sturm_counter` counts the eigenvalues of ``padiclab.jacobi_D0`` below
a shift from the signs of the tridiagonal ``LDL^T`` pivots in mpmath
arithmetic, and :func:`jacobi_lowest_eigs` bisects on that count, so each
eigenvalue is accurate relative to itself whatever the grading.  The tests
hold the float ``eigvalsh`` seeds, the float Sturm count of ``find_roots``
and the certified roots against it.
"""

from __future__ import annotations

import mpmath as mp

from padiclab import FieldParams


def sturm_counter(params: FieldParams, L: int):
    """Exact eigenvalue counts of :func:`padiclab.jacobi_D0` of order ``L``.

    Returns ``(count_below, upper, dps)``: ``count_below(x)`` is the number
    of eigenvalues below ``x``, from the signs of the tridiagonal ``LDL^T``
    pivots of ``jacobi_D0 - x`` in ``dps``-digit arithmetic, and ``upper`` a
    Gershgorin bound above every eigenvalue.  ``dps`` grows with the largest
    entry, about ``p**(2L/e)``.
    """
    dps = max(50, int(L * 2 * mp.log10(params.p) / params.e) + 30)
    with mp.workdps(dps):
        Q = mp.power(params.p, mp.mpf(2) / params.e)
        diag = [mp.mpf(1)] + [Q ** (l - 1) * (1 + Q) for l in range(1, L)]
        offsq = [Q ** (2 * l) for l in range(L - 1)]  # squared couplings
        upper = max(
            diag[l]
            + (mp.sqrt(offsq[l - 1]) if l > 0 else 0)
            + (mp.sqrt(offsq[l]) if l < L - 1 else 0)
            for l in range(L)
        )

    def count_below(x) -> int:
        with mp.workdps(dps):
            x = mp.mpf(x)
            cnt = 0
            d = diag[0] - x
            if d == 0:
                d = mp.mpf(10) ** (-dps)
            if d < 0:
                cnt += 1
            for l in range(1, L):
                d = (diag[l] - x) - offsq[l - 1] / d
                if d == 0:
                    d = mp.mpf(10) ** (-dps)
                if d < 0:
                    cnt += 1
            return cnt

    return count_below, upper, dps


def jacobi_lowest_eigs(params: FieldParams, L: int, count: int = 1) -> list[mp.mpf]:
    """Certified lowest eigenvalues of :func:`padiclab.jacobi_D0` via Sturm bisection.

    Counts eigenvalues below a shift through the tridiagonal ``LDL^T`` sign
    sequence in arbitrary precision and bisects, so each eigenvalue is
    accurate relative to itself whatever the grading.  The matrix entries
    grow like ``p**(2L/e)``; float64 ``np.linalg.eigvalsh`` nevertheless keeps
    the low eigenvalues of this graded matrix to a few ulps (pinned against
    this routine by a grid test), and this routine is its oracle.
    """
    if count < 1 or count > L:
        raise ValueError("need 1 <= count <= L")
    count_below, upper, dps = sturm_counter(params, L)
    with mp.workdps(dps):
        eigs: list[mp.mpf] = []
        for k in range(1, count + 1):
            lo, hi = mp.mpf(0), mp.mpf(upper)
            for _ in range(int(3.5 * dps) + 20):
                mid = (lo + hi) / 2
                if count_below(mid) >= k:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < mp.mpf(10) ** (-dps + 8) * max(hi, mp.mpf(1)):
                    break
            eigs.append((lo + hi) / 2)
        return eigs
