"""Exact-rank and exhaustive-balance kernels."""

import numpy as np
import sympy
from hypothesis import given, settings, strategies as st

from hodgelap import _kernels
from hodgelap._kernels import (
    _eliminate_unit_pivots,
    _nonzero_entries,
    _peel,
    _row_dicts,
    bareiss_rank_pyint,
    exact_rank,
    exhaustive_balance,
)
from hodgelap.core import from_facets
from hodgelap.operators import CoboundaryMatrix, coboundary_matrix
from hodgelap.spectra import betti

# The 6-vertex real projective plane: H_1 over Z is Z/2, so D_1 has a
# non-unit invariant factor that no +/-1 pivot can remove.
RP2_FACETS = [
    [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
    [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
]


def test_exact_rank_known_cases():
    assert exact_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert exact_rank(np.eye(5, dtype=np.int64)) == 5
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert exact_rank(a) == 1
    assert exact_rank(np.array([], dtype=np.int64).reshape(0, 3)) == 0


def test_exact_rank_matches_numpy_on_random_pm1():
    rng = np.random.default_rng(0)
    for _ in range(60):
        m, n = rng.integers(1, 14, size=2)
        a = rng.integers(-1, 2, size=(m, n))
        assert exact_rank(a) == np.linalg.matrix_rank(a.astype(float))


def test_exact_rank_of_large_entries():
    # Bareiss products of entries this large exceed int64; the Python-int
    # elimination handles them exactly.
    big = 1 << 40
    a = np.array([[big, 0], [0, big]], dtype=np.int64)
    assert exact_rank(a) == 2


def test_pyint_rank_agrees_with_fast_path():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m, n = rng.integers(1, 10, size=2)
        a = rng.integers(-3, 4, size=(m, n))
        fast = exact_rank(a)
        slow = bareiss_rank_pyint([[int(v) for v in row] for row in a])
        assert fast == slow


def test_pyint_rank_scales_rows_with_zero_in_pivot_column():
    # Row 3 has a zero under the first pivot; unless it is still scaled by
    # that pivot, the next exact division goes wrong and the rank reads 3.
    a = [[-4, 4, 0, -2], [4, 3, -2, 1], [0, 0, -2, 0], [0, 0, 4, 3]]
    assert bareiss_rank_pyint(a) == 4
    assert exact_rank(a) == 4


def test_exact_rank_matches_sympy():
    rng = np.random.default_rng(11)
    for trial in range(300):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        kind = trial % 3
        if kind == 0:  # sparse
            a = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.3)
        elif kind == 1:  # rank-deficient: a product through a narrow middle
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.integers(-5, 6, size=(m, r)) @ rng.integers(-5, 6, size=(r, n))
        else:  # entries whose products do not fit in int64
            a = rng.integers(-(1 << 40), 1 << 40, size=(m, n))
        expected = sympy.Matrix(a.tolist()).rank()
        assert exact_rank(a) == expected
        assert bareiss_rank_pyint(a.tolist()) == expected


def _count_bareiss(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(np.shape(matrix))
        return bareiss_rank_pyint(matrix)

    monkeypatch.setattr(_kernels, "bareiss_rank_pyint", counting)
    return calls


def test_rp2_rank_reaches_the_residual_phase(monkeypatch):
    rp2 = from_facets(RP2_FACETS)
    assert betti(rp2).reduced == (0, 0, 0, 0)
    d1 = coboundary_matrix(rp2, 1)
    # Every edge of a closed surface lies in two triangles, so no entry of
    # D_1 is alone in its row or column and the peel takes nothing.
    entries = _nonzero_entries(d1)
    assert _peel(*entries)[3] == []
    rows = _row_dicts(*entries)
    unit = _eliminate_unit_pivots(rows)
    assert rows and len(unit) < 10  # a residual with no unit entry is left over
    assert all(abs(v) != 1 for row in rows.values() for v in row.values())
    calls = _count_bareiss(monkeypatch)
    assert exact_rank(d1) == 10
    assert calls


def test_non_unit_inputs_go_to_bareiss(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    assert exact_rank([[2, 4], [4, 2]]) == 2
    assert calls == [(2, 2)]
    # A hollow triangle whose coboundary signs are all doubled: rank 2, and
    # no entry is a unit, so the whole table is the residual.
    index = np.array([[0, 1], [0, 2], [1, 2]])
    table = CoboundaryMatrix(index, 3, np.array([[-2, 2]] * 3))
    assert exact_rank(table) == 2
    assert calls[-1] == (3, 3)


def test_residual_after_unit_pivots_keeps_large_entries_exact(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    big = 1 << 40
    # No entry is alone in its row or column and none is a unit, so the
    # whole matrix is the residual; its determinant big**2 - 15 needs more
    # than 64 bits.
    assert exact_rank([[big, 3], [5, big]]) == 2
    assert calls == [(2, 2)]
    # After the unit pivot at (0, 0) the residual is [[3*big - big**2]],
    # which does not fit in int64 at all.
    assert exact_rank([[1, big], [big, 3 * big]]) == 2
    assert calls == [(2, 2), (1, 1)]
    # Entries alone in their row or column are peeled whatever their value:
    # [[1, 0], [0, big]] never reaches Bareiss.
    assert exact_rank([[1, 0], [0, big]]) == 2
    assert calls == [(2, 2), (1, 1)]


def test_table_and_dense_inputs_agree():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n_rows, width, n_cols = (int(v) for v in rng.integers(1, 7, size=3))
        width = min(width, n_cols)
        index = np.array([rng.choice(n_cols, width, replace=False) for _ in range(n_rows)])
        values = rng.integers(-3, 4, size=(n_rows, width))
        table = CoboundaryMatrix(index, n_cols, values)
        assert exact_rank(table) == exact_rank(table.matrix.toarray())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=7,
    ),
    scale=st.lists(st.integers(-3, 3), min_size=1, max_size=8),
)
def test_table_rank_matches_dense_bareiss(facets, scale):
    k = from_facets(facets)
    for i in range(-1, k.dim + 1):
        d = coboundary_matrix(k, i)
        # The coboundary itself, and its table with each row scaled by an
        # integer, which leaves non-unit entries for the residual phase.
        factors = np.resize(np.array(scale, dtype=np.int64), len(d.index))[:, None]
        scaled = CoboundaryMatrix(d.index, d.n_cols, d.values * factors)
        for table in (d, scaled):
            expected = bareiss_rank_pyint(table.matrix.toarray())
            assert exact_rank(table) == expected
            if max(table.shape) <= 12:
                assert sympy.Matrix(table.matrix.toarray().tolist()).rank() == expected


# Zeros, units, small non-units and entries past int64, so every stage of
# the rank path is reached: the peel, the unit pivots and Bareiss.
_ENTRIES = st.one_of(
    st.just(0),
    st.sampled_from([1, -1]),
    st.integers(-5, 5),
    st.integers(-(1 << 70), 1 << 70),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=6)
    )
)
def test_exact_rank_and_its_pivot_rows_match_bareiss(matrix):
    pivots = []
    rank = exact_rank(matrix, pivots)
    assert rank == exact_rank(matrix) == bareiss_rank_pyint(matrix)
    # The recorded rows are distinct, at most the rank, and of full rank.
    assert len(set(pivots)) == len(pivots) <= rank
    assert bareiss_rank_pyint([matrix[r] for r in pivots]) == len(pivots)


def test_exhaustive_balance_simple():
    # even cycle with all-minus signs is antiparallel-balanced
    edges = [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 0, -1)]
    x = exhaustive_balance(4, edges, -1)
    assert x is not None
    for a, b, s in edges:
        assert x[a] * x[b] * s == -1
    # odd all-plus cycle cannot be made all-minus
    odd = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    assert exhaustive_balance(3, odd, -1) is None
    assert exhaustive_balance(3, odd, 1) is not None


def test_exhaustive_balance_no_edges():
    assert exhaustive_balance(3, [], 1) is not None


def test_exhaustive_balance_random_vs_product_rule():
    # a single cycle is balanced for target t iff the sign product is t^len
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 11))
        signs = rng.choice([-1, 1], size=n)
        edges = [(j, (j + 1) % n, int(signs[j])) for j in range(n)]
        prod = int(np.prod(signs))
        for target in (-1, 1):
            expected = prod == (target ** n)
            got = exhaustive_balance(n, edges, target) is not None
            assert got == expected


def test_exact_rank_reads_entries_past_int64_as_python_ints():
    big = 1 << 70
    assert exact_rank([[big, 0], [0, 1]]) == 2
    assert exact_rank([[big, 2 * big], [1, 2]]) == 1
    assert exact_rank(np.array([[big, 3], [1, 2]], dtype=object)) == 2
    index = np.array([[0, 1], [1, 2]])
    table = CoboundaryMatrix(index, 3, np.array([[big, 2 * big], [1, 2]], dtype=object))
    assert exact_rank(table) == 2
    table = CoboundaryMatrix(index[:1], 3, np.array([[big, -big]], dtype=object))
    assert _row_dicts(*_nonzero_entries(table)) == {0: {0: big, 1: -big}}
    assert exact_rank(table) == 1


def test_int64_input_keeps_the_int64_path():
    a = np.array([[2, 0, 1], [0, 3, 0]], dtype=np.int64)
    assert _kernels._integers(a) is a
    assert _kernels._integers([[1, -1], [2, 0]]).dtype == np.int64
    assert _kernels._integers([[1 << 63, 0]]).dtype == object
    rows = _row_dicts(*_nonzero_entries(a))
    assert rows == {0: {0: 2, 2: 1}, 1: {1: 3}}
    assert all(type(v) is int for row in rows.values() for v in row.values())
    assert exact_rank(a) == 2
