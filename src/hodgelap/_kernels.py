"""Exact integer rank by fraction-free elimination, and the balance oracle.

Betti numbers come from the ranks of integer coboundary matrices, so the
rank must be exact: no floating point and no tolerance.  ``exact_rank``
runs Bareiss's fraction-free Gaussian elimination (Bareiss 1968), in which
every intermediate entry is a minor of the input and every division is
exact.  Each pivot step updates the whole remaining block with one numpy
expression.

The elimination loop is written once and runs on two dtypes.  ``int64`` is
the fast path; entries are minors and can grow, so before each pivot step
the active block is checked against an overflow guard, and if the guard
trips the matrix is eliminated again on an ``object`` array of Python ints
(``bareiss_rank_pyint``), which cannot overflow.  The rank is exact on
either path.

``exhaustive_balance`` is the brute-force reference for the BFS balance
test in :mod:`hodgelap.core`; the tests compare the two.
"""

from __future__ import annotations

import numpy as np

# Magnitudes up to 2**30 keep every Bareiss product below 2**60, so the
# difference of two products fits comfortably in int64.
_OVERFLOW_GUARD = 1 << 30


def _bareiss_rank(a: np.ndarray, guard: int | None = None) -> int:
    """Rank of the 2-D integer array ``a``, which is overwritten.

    Returns -1 as soon as an entry of the active block exceeds ``guard``.
    Every row below the pivot is updated, including rows whose entry in the
    pivot column is zero: Sylvester's identity makes the division by the
    previous pivot exact only when all rows carry the same scale.
    """
    if a.size == 0:
        return 0
    m, n = a.shape
    row, prev = 0, 1
    for col in range(n):
        if row == m:
            break
        nonzero = np.flatnonzero(a[row:, col])
        if nonzero.size == 0:
            continue
        if nonzero[0]:
            p = row + nonzero[0]
            a[[row, p], col:] = a[[p, row], col:]
        if guard is not None and np.abs(a[row:, col:]).max() > guard:
            return -1
        piv = a[row, col]
        a[row + 1 :, col + 1 :] = (
            piv * a[row + 1 :, col + 1 :] - a[row + 1 :, col : col + 1] * a[row, col + 1 :]
        ) // prev
        prev = piv
        row += 1
    return row


def bareiss_rank_pyint(matrix) -> int:
    """Exact rank over the rationals with arbitrary-precision integers.

    ``matrix`` is any 2-D integer array-like (an array, or a list of equal
    length lists of ints); it is not modified.
    """
    return _bareiss_rank(np.array(matrix, dtype=object))


def exact_rank(matrix) -> int:
    """Rank of an integer matrix, computed exactly (no floating point).

    Uses fraction-free (Bareiss) elimination: all intermediate entries are
    integers, so the result carries no tolerance.  The int64 fast path falls
    back to arbitrary precision if entries grow past the overflow guard.
    """
    r = _bareiss_rank(np.array(matrix, dtype=np.int64), _OVERFLOW_GUARD)
    if r >= 0:
        return r
    # The int64 copy holds a half-finished elimination, so reread the input;
    # a float input must reach the Python-int path as the same integers.
    return bareiss_rank_pyint(np.asarray(matrix, dtype=np.int64))


def exhaustive_balance(n_nodes, edges, target):
    """Brute-force search for +/-1 node signs with ``x_a*x_b*s == target``.

    ``edges`` is an iterable of ``(a, b, s)`` with node indices in
    ``range(n_nodes)`` and ``s in {+1, -1}``.  Returns a list of +/-1 node
    signs, or ``None`` when no assignment exists.  Cost is ``O(2**n)``;
    intended as a test oracle for small instances.
    """
    edges = list(edges)
    for mask in range(1 << n_nodes):
        signs = [1 - 2 * ((mask >> k) & 1) for k in range(n_nodes)]
        if all(signs[a] * signs[b] * s == target for a, b, s in edges):
            return signs
    return None
