"""Exact integer rank by unit-pivot and fraction-free elimination, and the balance oracle.

Betti numbers come from the ranks of integer coboundary matrices, so the
rank must be exact: no floating point and no tolerance.  ``exact_rank``
takes a dense integer array or a boundary-index table and runs in two
phases on one sparse copy of the entries, each row a ``{column: value}``
dict.

The sparse phase eliminates +/-1 pivots.  Every coboundary entry is +/-1,
and such a matrix almost always has a +/-1 entry in a short column;
subtracting a multiple of a unit-pivot row divides by nothing, so the
entries stay integers.  Pivots are taken in Markowitz order (fewest rows in
the column, then the shortest row), which keeps the fill-in small.  This is
the coreduction idea of Mrozek and Batko (2009) and the sparse elimination
of Dumas, Heckenbach, Saunders and Welker (2003).  On simplicial
coboundaries it usually eliminates every row.

The rows that are left, if any, form a residual with no unit entry, which
goes to Bareiss's fraction-free Gaussian elimination (Bareiss 1968): every
intermediate entry is a minor of the input and every division is exact.
Each pivot step updates the whole remaining block with one numpy
expression.  The entries are minors and can grow past any fixed width, so
the residual is held in an ``object`` array of Python ints
(``bareiss_rank_pyint``), which cannot overflow.

``exhaustive_balance`` is the brute-force reference for the BFS balance
test in :mod:`hodgelap.core`; the tests compare the two.
"""

from __future__ import annotations

import heapq

import numpy as np


def bareiss_rank_pyint(matrix) -> int:
    """Exact rank over the rationals with arbitrary-precision integers.

    ``matrix`` is any 2-D integer array-like (an array, or a list of equal
    length lists of ints); it is not modified.  Every row below the pivot is
    updated, including rows whose entry in the pivot column is zero:
    Sylvester's identity makes the division by the previous pivot exact only
    when all rows carry the same scale.
    """
    a = np.array(matrix, dtype=object)
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
        piv = a[row, col]
        a[row + 1 :, col + 1 :] = (
            piv * a[row + 1 :, col + 1 :] - a[row + 1 :, col : col + 1] * a[row, col + 1 :]
        ) // prev
        prev = piv
        row += 1
    return row


def _integers(values) -> np.ndarray:
    """``values`` as an int64 array, or as an object array of Python ints
    when some entry does not fit in int64.  An int64 array comes back as is.
    """
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _row_dicts(matrix) -> dict[int, dict[int, int]]:
    """The nonzero entries of ``matrix`` as ``{row: {column: value}}``.

    A boundary-index table (anything with ``index`` and ``values`` arrays,
    such as :class:`hodgelap.core.CoboundaryMatrix`) lists its entries
    directly, each row's in distinct columns; anything else is read as a
    dense integer array.  The values are read by :func:`_integers`, so
    entries past int64 stay exact; every value comes out a Python int.
    """
    if hasattr(matrix, "index") and hasattr(matrix, "values"):
        index = np.asarray(matrix.index, dtype=np.int64)
        rows = np.repeat(np.arange(len(index)), index.shape[1])
        cols = index.ravel()
        vals = _integers(matrix.values).ravel()
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    else:
        a = _integers(matrix)
        rows, cols = np.nonzero(a)
        vals = a[rows, cols]
    out: dict[int, dict[int, int]] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out.setdefault(r, {})[c] = v
    return out


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> int:
    """Eliminate +/-1 pivots from ``rows`` in place; return how many.

    Markowitz order: the column with the fewest rows goes first, and its
    pivot is the shortest row holding +/-1 there, ties broken by index.  A
    column with no +/-1 entry waits until one of its entries changes.  With
    a unit pivot ``pv`` the update ``row -= row[c] * pv * pivot_row`` needs
    no division, so the elimination stays exact over the integers.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    heap = [(len(members), c) for c, members in cols.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        count, c = heapq.heappop(heap)
        members = cols.get(c)
        if members is None or len(members) != count:
            continue  # stale entry: the column was eliminated or changed
        pivot = min(
            ((len(rows[r]), r) for r in members if rows[r][c] in (1, -1)), default=None
        )
        if pivot is None:
            continue
        p = pivot[1]
        prow = rows.pop(p)
        pv = prow.pop(c)
        del cols[c]
        members.discard(p)
        for cc in prow:
            cols[cc].discard(p)
        for r in members:
            row = rows[r]
            f = row.pop(c) * pv
            for cc, v in prow.items():
                nv = row.get(cc, 0) - f * v
                if nv:
                    row[cc] = nv
                    cols[cc].add(r)
                else:
                    del row[cc]
                    cols[cc].discard(r)
            if not row:
                del rows[r]
        for cc in prow:
            if cols[cc]:
                heapq.heappush(heap, (len(cols[cc]), cc))
            else:
                del cols[cc]
        rank += 1
    return rank


def exact_rank(matrix) -> int:
    """Rank of an integer matrix, computed exactly (no floating point).

    ``matrix`` is a dense integer array-like or a boundary-index table with
    ``index`` and ``values`` fields.  Unit pivots are eliminated sparsely
    first; the rows left over, if any, go to Bareiss elimination on Python
    ints.
    """
    rows = _row_dicts(matrix)
    rank = _eliminate_unit_pivots(rows)
    if not rows:
        return rank
    cols = sorted({c for row in rows.values() for c in row})
    pos = {c: k for k, c in enumerate(cols)}
    residual = [[0] * len(cols) for _ in rows]
    for dense_row, row in zip(residual, rows.values()):
        for c, v in row.items():
            dense_row[pos[c]] = v
    return rank + bareiss_rank_pyint(residual)


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
