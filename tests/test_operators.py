"""Coboundaries, weight schemes, Laplacian assembly, symmetric forms."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgelap.core import SimplicialComplex, _entry_pairs, from_facets
from hodgelap.errors import WeightError
from hodgelap.operators import (
    CoboundaryMatrix,
    WeightScheme,
    _gram,
    _weights,
    coboundary_matrix,
    entrywise_laplacian,
    laplacian,
    weighted_coboundary,
)
from hodgelap.spectra import predicted_zero_multiplicity, spectrum
from hodgelap.theorems import check_bounds, check_hodge_and_duality, deterministic_custom_scheme
from test_core import _reference_normalized_weights

SCHEMES = [WeightScheme.combinatorial(), WeightScheme.normalized()]


def test_coboundary_single_edge():
    k = from_facets([[0, 1]])
    d0 = coboundary_matrix(k, 0).matrix.toarray()
    assert d0.tolist() == [[-1, 1]]
    dm1 = coboundary_matrix(k, -1).matrix.toarray()
    assert dm1.tolist() == [[1], [1]]


def test_coboundary_top_is_empty():
    hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    d1 = coboundary_matrix(hollow, 1).matrix
    assert d1.shape == (0, 3)


def test_coboundary_composition_is_zero(random_complexes):
    for k in random_complexes:
        for i in range(0, k.dim + 1):
            d_i = coboundary_matrix(k, i).matrix
            d_im1 = coboundary_matrix(k, i - 1).matrix
            assert (d_i @ d_im1).nnz == 0  # exact integer arithmetic


def test_normalized_weights_graph_degrees():
    g = from_facets([[0, 1], [0, 2], [0, 3]])
    w = _weights(g, WeightScheme.normalized())
    assert w[(0,)] == 3 and w[(1,)] == 1
    assert w[(0, 1)] == 1
    assert w[()] == 6


def test_normalized_weights_shared_edge():
    k = from_facets([[0, 1, 2], [1, 2, 3]])
    w = _weights(k, WeightScheme.normalized())
    assert w[(1, 2)] == 2
    assert w[(0, 1)] == 1
    assert w[(0, 1, 2)] == 1


def test_normalized_weights_filled_triangle_vertices():
    k = from_facets([[0, 1, 2]])
    w = _weights(k, WeightScheme.normalized())
    assert all(w[(v,)] == 2 for v in range(3))


def test_zero_degree_faces_flagged():
    k = from_facets([[0, 1, 2], [3]])
    lap = laplacian(k, 0, "up", WeightScheme.normalized())
    zero_rows = [f for f, row in zip(k.faces(0), lap.symmetric) if not row.any()]
    assert zero_rows == [(3,)]
    assert (lap.weights > 0).all()  # isolated vertex is a facet: weight 1


def test_custom_scheme_validation():
    k = from_facets([[0, 1]])
    with pytest.raises(WeightError):
        _weights(k, WeightScheme.from_map({(0,): 1.0}))  # incomplete
    with pytest.raises(WeightError):
        _weights(
            k, WeightScheme.from_map({(0,): 1.0, (1,): -2.0, (0, 1): 1.0})
        )


def test_laplacian_triangle_graph_normalized():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    lap = laplacian(k3, 0, "up", WeightScheme.normalized())
    np.testing.assert_allclose(np.diag(lap.matrix), 1.0)
    off = lap.matrix[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -0.5)


def test_laplacian_k3_combinatorial_is_graph_laplacian():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    lap = laplacian(k3, 0, "up", WeightScheme.combinatorial())
    expected = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
    np.testing.assert_allclose(lap.matrix, expected)


def test_laplacian_minus_one_up_is_one(fixtures):
    for k in fixtures.values():
        lap = laplacian(k, -1, "up", WeightScheme.normalized())
        np.testing.assert_allclose(lap.matrix, [[1.0]])


def test_laplacian_degenerate_top_up(fixtures):
    k = fixtures["filled-triangle"]
    lap = laplacian(k, 2, "up", WeightScheme.normalized())
    assert lap.matrix.shape == (1, 1) and lap.matrix[0, 0] == 0
    assert not lap.symmetric.any()  # the triangle has no coface: a zero row


def test_symmetrize_k13():
    k13 = from_facets([[0, 1], [0, 2], [0, 3]])
    lap = laplacian(k13, 0, "up", WeightScheme.normalized())
    sym = lap.symmetric
    np.testing.assert_allclose(sym, sym.T)
    center = k13.index((0,))
    leaf = k13.index((1,))
    np.testing.assert_allclose(sym[center, leaf], -1 / np.sqrt(3))


def test_symmetrize_combinatorial_identity_weights(fixtures):
    k = fixtures["two-triangles-shared-edge"]
    lap = laplacian(k, 1, "up", WeightScheme.combinatorial())
    np.testing.assert_allclose(lap.symmetric, lap.matrix, atol=1e-12)


@pytest.mark.parametrize(
    "shape", [(7, 5, 3), (4, 9, 2), (1, 6, 4), (6, 1, 1), (0, 4, 3), (9, 4, 4), (0, 0, 1)]
)
def test_gram_matches_sparse_products(shape):
    # A random table of (rows, columns, width): each row holds `width`
    # distinct columns, drawn so that the last column stays empty whenever
    # the width leaves room.
    n_rows, n_cols, width = shape
    rng = np.random.default_rng(sum(shape))
    pool = max(n_cols - 1, width)
    index = np.array(
        [rng.choice(pool, size=width, replace=False) for _ in range(n_rows)], dtype=np.int64
    ).reshape(n_rows, width)
    b = CoboundaryMatrix(index, n_cols, rng.normal(size=(n_rows, width)))
    dense = b.matrix.toarray()
    assert dense.shape == (n_rows, n_cols)
    np.testing.assert_allclose(_gram(b, "columns"), dense.T @ dense, atol=1e-12)
    np.testing.assert_allclose(_gram(b, "rows"), dense @ dense.T, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=7,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_coboundary_table_properties(facets, seed):
    k = from_facets(facets)
    rng = np.random.default_rng(seed)
    wmap = {f: float(10 ** rng.uniform(-3, 3)) for f in k.all_faces()}
    for i in range(-1, k.dim + 1):
        d = coboundary_matrix(k, i)
        dense = d.matrix.toarray()
        assert dense.dtype == np.int64
        if i >= 0:
            assert not (dense @ coboundary_matrix(k, i - 1).matrix.toarray()).any()
        b = weighted_coboundary(k, i, WeightScheme.from_map(wmap))
        bd = b.matrix.toarray()
        for of, ref in (("columns", bd.T @ bd), ("rows", bd @ bd.T)):
            tol = 1e-12 * max(1.0, float(np.linalg.norm(ref)))
            assert np.abs(_gram(b, of) - ref).max(initial=0.0) <= tol


def test_spectrum_solves_the_smaller_side_on_k4_skeleton():
    # Hollow tetrahedron: 4 vertices, 6 edges, 4 triangles.  up_1 is solved
    # on the 4x4 Gram of B_1's rows, down_1 on the 4x4 Gram of B_0's columns.
    k = from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    for scheme in SCHEMES + [deterministic_custom_scheme(k, 0)]:
        sqrt_w = np.sqrt([_weights(k, scheme)[f] for f in k.faces(1)])
        for direction in ("up", "down"):
            lap = laplacian(k, 1, direction, scheme)
            b = (lap.up if direction == "up" else lap.down).matrix.toarray()
            small = b @ b.T if direction == "up" else b.T @ b
            assert small.shape == (4, 4)
            got = spectrum(lap)
            assert "symmetric" not in vars(lap)  # the 6x6 form was never built
            oracle = entrywise_laplacian(k, 1, direction, scheme)
            ref = np.linalg.eigvalsh(oracle * sqrt_w[:, None] / sqrt_w[None, :])
            assert len(got) == 6
            assert np.abs(got.values - ref).max() <= 1e-12
            assert np.abs(got.values[2:] - np.linalg.eigvalsh(small)).max() <= 1e-12
            assert got.zero_multiplicity == predicted_zero_multiplicity(k, 1, direction)


def test_entrywise_equals_product_form(fixtures, random_complexes):
    pool = list(fixtures.values()) + random_complexes[:6]
    for k in pool:
        schemes = SCHEMES + [deterministic_custom_scheme(k, 7)]
        for scheme in schemes:
            for i in range(-1, k.dim + 1):
                for direction in ("up", "down", "full"):
                    a = laplacian(k, i, direction, scheme).matrix
                    b = entrywise_laplacian(k, i, direction, scheme)
                    assert np.abs(a - b).max() <= 1e-12


def test_spectra_nonnegative(fixtures, random_complexes):
    for k in list(fixtures.values()) + random_complexes[:6]:
        for scheme in SCHEMES + [deterministic_custom_scheme(k, 3)]:
            for i in range(-1, k.dim + 1):
                for direction in ("up", "down", "full"):
                    s = spectrum(laplacian(k, i, direction, scheme))
                    assert s.values.min() >= -1e-9


def test_normalized_upper_bound_quick(fixtures):
    for k in fixtures.values():
        for i in range(0, k.dim):
            s = spectrum(laplacian(k, i, "up", WeightScheme.normalized()))
            assert s.values.max() <= i + 2 + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_wide_custom_weights(facets, seed, scale):
    # Weights spread over 12 decades.  A dense symmetric eigensolver is
    # accurate to a few ulps of the largest eigenvalue, not of each one, so
    # the tolerance scales with the spectrum.
    k = from_facets(facets)
    rng = np.random.default_rng(seed)
    w = {f: float(10 ** rng.uniform(-6, 6)) for f in k.all_faces()}
    scheme = WeightScheme.from_map(w)
    scaled = WeightScheme.from_map({f: scale * v for f, v in w.items()})
    for i in range(-1, k.dim + 1):
        sqrt_w = np.sqrt([w[f] for f in k.faces(i)])
        for direction in ("up", "down", "full"):
            got = spectrum(laplacian(k, i, direction, scheme)).values
            oracle = entrywise_laplacian(k, i, direction, scheme)
            ref = np.linalg.eigvalsh(oracle * sqrt_w[:, None] / sqrt_w[None, :])
            tol = 1e-9 * max(1.0, float(np.abs(ref).max()))
            assert np.abs(got - ref).max() <= tol
            again = spectrum(laplacian(k, i, direction, scaled)).values
            assert np.abs(got - again).max() <= tol


def test_memoized_tables_are_read_only():
    facets = [[0, 1, 2], [1, 2, 3]]
    norm = WeightScheme.normalized()
    expected = spectrum(laplacian(from_facets(facets), 1, "full", norm)).values
    k = from_facets(facets)
    d = coboundary_matrix(k, 0)
    arrays = [d.index, d.values, weighted_coboundary(k, 0, norm).values]
    arrays += _entry_pairs(d, "rows")[:2]
    for array in arrays:
        with pytest.raises(ValueError):
            array[:] = 0
    assert np.array_equal(spectrum(laplacian(k, 1, "full", norm)).values, expected)


def test_laplacians_share_each_weighted_coboundary():
    k = from_facets([[0, 1, 2], [1, 2, 3], [2, 3, 4, 5]])
    assert deterministic_custom_scheme(k, 0) is deterministic_custom_scheme(k, 0)
    for scheme in SCHEMES + [deterministic_custom_scheme(k, 0)]:
        for j in range(-1, k.dim):
            b = laplacian(k, j, "up", scheme).up
            assert b is laplacian(k, j + 1, "down", scheme).down
            assert b is laplacian(k, j, "full", scheme).up
            # Every weighted table of D_j shares its index and pair layout.
            d = coboundary_matrix(k, j)
            assert b.index is d.index and b._pairs is d._pairs
    # A custom scheme is keyed by its map, so an equal copy gets its own table.
    custom = deterministic_custom_scheme(k, 0)
    copy = WeightScheme.from_map(custom.custom)
    assert weighted_coboundary(k, 0, copy) is not weighted_coboundary(k, 0, custom)
    assert np.array_equal(
        weighted_coboundary(k, 0, copy).values, weighted_coboundary(k, 0, custom).values
    )


def test_memo_tables_add_no_reference_cycle():
    class Tracked(SimplicialComplex):
        """A complex that can be weakly referenced; the base class has slots only."""

    base = from_facets([[0, 1, 2], [1, 2, 3], [3, 4]])
    k = Tracked(base._labels, base._layers, base._keys)
    gc.disable()
    try:
        assert check_hodge_and_duality(k, "tracked").passed
        for i in range(k.dim):
            for kind in ("combinatorial", "normalized", "custom"):
                check_bounds(k, i, kind, "tracked")
        assert any(key[0] == "weighted" for key in k._memo)
        ref = weakref.ref(k)
        del k
        # Only reference counting runs, so a cycle would keep the complex alive.
        assert ref() is None
    finally:
        gc.enable()


def _dict_path_weights(k, scheme):
    """Every face's weight, worked out face by face as a dict."""
    if scheme.kind == "combinatorial":
        return {f: 1.0 for f in k.all_faces()}
    if scheme.kind == "normalized":
        return _reference_normalized_weights(k)
    custom = scheme.custom
    return {f: float(custom.get(f, 1.0) if f == () else custom[f]) for f in k.all_faces()}


def test_weight_vectors_match_the_dict_path_on_the_corpus():
    from hodgelap import corpus
    from hodgelap.operators import _weight_vector

    for k in corpus.full_corpus(seed=0, random_count=10).values():
        for scheme in SCHEMES + [deterministic_custom_scheme(k)]:
            ref = _dict_path_weights(k, scheme)
            for d in range(-1, k.dim + 1):
                w = _weight_vector(k, scheme, d)
                assert np.array_equal(w, [ref[f] for f in k.faces(d)]), (k, scheme.kind, d)
                assert not w.flags.writeable
            assert _weight_vector(k, scheme, k.dim + 1).shape == (0,)
            wmap = _weights(k, scheme)
            assert wmap == ref and list(wmap) == list(ref)
            assert all(type(v) is float for v in wmap.values())


def test_custom_weights_report_the_first_offending_face():
    k = from_facets([[0, 1], [1, 2]])
    faces = {(0,): 1.0, (1,): 1.0, (2,): 1.0, (0, 1): 1.0, (1, 2): 1.0}
    invalid = "weight of face {} must be finite and positive, got {}"
    for bad, message in (
        ({(1,): 0.0, (0, 1): float("nan")}, invalid.format((1,), 0.0)),
        ({(2,): None, (0, 1): -1.0}, "custom scheme is missing face (2,)"),
        ({(0, 1): float("inf")}, invalid.format((0, 1), "inf")),
        ({(): -2.0}, invalid.format((), -2.0)),
    ):
        custom = {**faces, **bad}
        custom = {f: w for f, w in custom.items() if w is not None}
        with pytest.raises(WeightError) as err:
            laplacian(k, 0, "up", WeightScheme("custom", custom))
        assert str(err.value) == message
