"""Exact-rank and exhaustive-balance kernels."""

import numpy as np
import sympy

from hodgelap._kernels import (
    _OVERFLOW_GUARD,
    _bareiss_rank,
    bareiss_rank_pyint,
    exact_rank,
    exhaustive_balance,
)


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


def test_exact_rank_overflow_falls_back_to_pyint():
    # entries beyond the int64 guard must be handled exactly by the
    # arbitrary-precision path
    big = 1 << 40
    a = np.array([[big, 0], [0, big]], dtype=np.int64)
    assert _bareiss_rank(a.copy(), _OVERFLOW_GUARD) == -1
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
        else:  # entries past the overflow guard
            a = rng.integers(-(1 << 40), 1 << 40, size=(m, n))
        expected = sympy.Matrix(a.tolist()).rank()
        assert exact_rank(a) == expected
        assert bareiss_rank_pyint(a.tolist()) == expected


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
