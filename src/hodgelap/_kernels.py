"""Exact integer rank by peeling, unit-pivot and fraction-free elimination, and the balance oracle.

Betti numbers come from the ranks of integer coboundary matrices, so the
rank must be exact: no floating point and no tolerance.  The rank path has
four steps, each on what the one before leaves:

1. Clear (in :mod:`hodgelap.spectra`, which knows the chain complex).  The
   ranks go bottom-up, and the pivot rows recorded for D_{j-1} are
   linearly independent j-faces Q.  Since ``D_j D_{j-1} = 0``, the columns Q
   of D_j lie in the span of its other columns, so they are zeroed before
   D_j is ranked and the rank does not change (Chen and Kerber 2011).
2. Peel.  ``exact_rank`` reads the nonzero entries of a dense integer array
   or a boundary-index table into three arrays.  An entry alone in its row
   or in its column is a pivot that needs no arithmetic, whatever its
   value, so rounds of numpy work take every such entry at once and drop
   its row and column.  This is the coreduction of Mrozek and Batko
   (2009); on cleared simplicial coboundaries it usually takes most of the
   matrix.
3. Unit pivots.  The entries left become one ``{column: value}`` dict per
   row, and +/-1 pivots are eliminated sparsely.  Every coboundary entry is
   +/-1, and subtracting a multiple of a unit-pivot row divides by nothing,
   so the entries stay integers.  Pivots are taken in Markowitz order
   (fewest rows in the column, then the shortest row), which keeps the
   fill-in small (Dumas, Heckenbach, Saunders and Welker 2003).
4. Bareiss.  The rows that are left, if any, form a residual with no unit
   entry, which goes to Bareiss's fraction-free Gaussian elimination
   (Bareiss 1968): every intermediate entry is a minor of the input and
   every division is exact.  Each pivot step updates the whole remaining
   block with one numpy expression.  The entries are minors and can grow
   past any fixed width, so the residual is held in an ``object`` array of
   Python ints (``bareiss_rank_pyint``), which cannot overflow.

The rows pivoted on by steps 2 and 3 are recorded for the clearing of the
next dimension; those of step 4 are not, which only clears fewer columns.

``exhaustive_balance`` is the brute-force reference for the signed balance
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


def _nonzero_entries(matrix):
    """The nonzero entries of ``matrix`` as arrays ``(rows, cols, values)``.

    A boundary-index table (anything with ``index`` and ``values`` arrays,
    such as :class:`hodgelap.core.CoboundaryMatrix`) lists its entries
    directly, each row's in distinct columns; anything else is read as a
    dense integer array.  The values are read by :func:`_integers`, so
    entries past int64 stay exact.
    """
    if hasattr(matrix, "index") and hasattr(matrix, "values"):
        index = np.asarray(matrix.index, dtype=np.int64)
        rows = np.repeat(np.arange(len(index)), index.shape[1])
        cols = index.ravel()
        vals = _integers(matrix.values).ravel()
        keep = vals != 0
        return rows[keep], cols[keep], vals[keep]
    a = _integers(matrix)
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def _row_dicts(rows, cols, vals) -> dict[int, dict[int, int]]:
    """Entries given as three arrays, as ``{row: {column: value}}`` of Python ints."""
    out: dict[int, dict[int, int]] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out.setdefault(r, {})[c] = v
    return out


def _peel(rows, cols, vals):
    """Pivot on the entries alone in their row or column.

    Returns the entries left, as three arrays, and the rows pivoted on.

    An entry alone in its column (or row) is a pivot that needs no
    arithmetic: column (row) operations clear the rest of its row (column)
    and touch nothing else, so deleting its row and column lowers the rank
    by exactly one, whatever its nonzero value.  Each round finds every
    such entry with two ``np.bincount`` calls and keeps one per column, then
    one per row.  The kept entries have distinct rows and columns, and each
    stays alone after the others' rows and columns are deleted, so a round
    deletes them all at once.  Each pivot is alone in its row or column of
    what is left when it is taken, so the block of pivot rows and pivot
    columns has the product of the pivots as its determinant, and the rows
    pivoted on are linearly independent.

    A round costs a pass over the entries left.  The rounds pay off while
    each frees more entries than the one before, as when lone entries
    spread from a cleared face through a well-connected complex.  Along a
    chain, such as a path or a long cycle, each round frees only the next
    entry or two, and a pass per entry would be quadratic.  So the peel
    stops after the first round that removes no more entries than the one
    before it, and the unit pivots, which take a chain in linear time,
    finish the rest.  Stopping early never changes the rank.
    """
    pivots: list[int] = []
    removed = 0
    while rows.size:
        lone = np.flatnonzero((np.bincount(rows)[rows] == 1) | (np.bincount(cols)[cols] == 1))
        if not lone.size:
            break
        lone = lone[np.unique(cols[lone], return_index=True)[1]]
        lone = lone[np.unique(rows[lone], return_index=True)[1]]
        dead_rows = np.zeros(rows.max() + 1, dtype=bool)
        dead_rows[rows[lone]] = True
        dead_cols = np.zeros(cols.max() + 1, dtype=bool)
        dead_cols[cols[lone]] = True
        pivots += rows[lone].tolist()
        keep = ~(dead_rows[rows] | dead_cols[cols])
        last, removed = removed, rows.size - int(np.count_nonzero(keep))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if removed <= last:
            break
    return rows, cols, vals, pivots


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> list[int]:
    """Eliminate +/-1 pivots from ``rows`` in place; return the pivot rows.

    Markowitz order: the column with the fewest rows goes first, and its
    pivot is the shortest row holding +/-1 there, ties broken by index.  A
    column with no +/-1 entry waits until one of its entries changes.  With
    a unit pivot ``pv`` the update ``row -= row[c] * pv * pivot_row`` needs
    no division, so the elimination stays exact over the integers.  Each
    pivot row is its input row plus multiples of earlier pivot rows and has
    a nonzero in a column that every later pivot row has cleared, so the
    input rows returned are linearly independent.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    heap = [(len(members), c) for c, members in cols.items()]
    heapq.heapify(heap)
    pivots = []
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
        pivots.append(p)
    return pivots


def exact_rank(matrix, pivots: list | None = None) -> int:
    """Rank of an integer matrix, computed exactly (no floating point).

    ``matrix`` is a dense integer array-like or a boundary-index table with
    ``index`` and ``values`` fields.  The rank path has three stages, each
    on what the one before leaves: entries alone in their row or column are
    peeled off round by round with numpy (:func:`_peel`); the entries left
    become row dicts, whose +/-1 pivots are eliminated sparsely
    (:func:`_eliminate_unit_pivots`); the rows left after that, if any, go
    to Bareiss elimination on Python ints.

    When ``pivots`` is a list, the rows pivoted on by the first two stages
    are appended to it.  They are linearly independent rows of ``matrix``.
    The rows ranked by Bareiss are not recorded, so the list can be shorter
    than the rank.  :mod:`hodgelap.spectra` ranks D_{j-1} first and zeroes
    the columns of D_j at its recorded rows before ranking D_j: since
    ``D_j D_{j-1} = 0``, the columns at independent rows of D_{j-1} lie in
    the span of the other columns of D_j, so the rank is unchanged.
    """
    rows, cols, vals, found = _peel(*_nonzero_entries(matrix))
    left = _row_dicts(rows, cols, vals)
    found += _eliminate_unit_pivots(left)
    if pivots is not None:
        pivots += found
    if not left:
        return len(found)
    cols = sorted({c for row in left.values() for c in row})
    pos = {c: k for k, c in enumerate(cols)}
    residual = [[0] * len(cols) for _ in left]
    for dense_row, row in zip(residual, left.values()):
        for c, v in row.items():
            dense_row[pos[c]] = v
    return len(found) + bareiss_rank_pyint(residual)


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
