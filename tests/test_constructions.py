"""Family generators, closed-form spectra, and the building operations."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgelap import core
from hodgelap.constructions import (
    FamilySpec,
    cartesian_product,
    cone,
    duplicate_motif,
    generate,
    join,
    nonorientable_circuit_spectrum,
    reference_spectrum,
    wedge,
)
from hodgelap.core import from_facets, signed_balance
from hodgelap.errors import DimensionError, FamilyParameterError
from hodgelap.operators import WeightScheme, laplacian
from hodgelap.spectra import spectrum
from test_core import _LABELS, _closure_reference

NORM = WeightScheme.normalized()


def test_generate_circuit_1_4_is_c4():
    k = generate(FamilySpec("circuit", i=1, m=4))
    assert k == from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])


def test_generate_circuit_2_6_shape():
    k = generate(FamilySpec("circuit", i=2, m=6))
    assert k.n_faces(0) == 7 and k.n_faces(2) == 6
    center = (0,)
    assert all(center[0] in f for f in k.faces(2))


def test_generate_star_2_3():
    k = generate(FamilySpec("star", i=2, m=3))
    assert k.n_faces(2) == 3
    shared = (0, 1)
    assert all(set(shared) <= set(f) for f in k.faces(2))


def test_generate_path_is_chain():
    k = generate(FamilySpec("path", i=3, m=5))
    faces = k.faces(3)
    assert len(faces) == 5
    for a in range(5):
        for b in range(a + 1, 5):
            inter = len(set(faces[a]) & set(faces[b]))
            assert (inter == 3) == (b == a + 1)


def test_generate_parameter_errors():
    with pytest.raises(FamilyParameterError):
        FamilySpec("circuit", i=2, m=2)
    with pytest.raises(FamilyParameterError):
        FamilySpec("simplex")
    with pytest.raises(FamilyParameterError):
        FamilySpec("moebius-circuit", i=1, m=4)
    with pytest.raises(FamilyParameterError):
        FamilySpec("nonsense")


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 5, 8, 12])
def test_circuit_spectra_match_closed_form(i, m):
    k = generate(FamilySpec("circuit", i=i, m=m))
    got = spectrum(laplacian(k, i, "down", NORM))
    ref = reference_spectrum(FamilySpec("circuit", i=i, m=m))
    np.testing.assert_allclose(got.values, ref.values, atol=1e-7)


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 6, 11])
def test_path_and_star_spectra_match_closed_form(i, m):
    for family in ("path", "star"):
        k = generate(FamilySpec(family, i=i, m=m))
        got = spectrum(laplacian(k, i, "down", NORM))
        ref = reference_spectrum(FamilySpec(family, i=i, m=m))
        np.testing.assert_allclose(got.values, ref.values, atol=1e-7)


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_simplex_spectra_match_closed_form(n):
    k = generate(FamilySpec("simplex", n=n))
    for i in range(-1, n):
        got = spectrum(laplacian(k, i, "up", NORM))
        ref = reference_spectrum(FamilySpec("simplex", n=n, i=i))
        np.testing.assert_allclose(got.values, ref.values, atol=1e-7)


def test_moebius_fixture():
    k = generate(FamilySpec("moebius-circuit"))
    got = spectrum(laplacian(k, 2, "down", NORM))
    expected = np.sort([2 + np.cos(2 * np.pi * j / 5) for j in range(5)])
    np.testing.assert_allclose(got.values, expected, atol=1e-7)
    assert not signed_balance(k, 2, "antiparallel").balanced
    nonor = nonorientable_circuit_spectrum(2, 5)
    np.testing.assert_allclose(nonor.values, expected, atol=1e-12)


def test_wedge_counts():
    filled = from_facets([[0, 1, 2]])
    w0, _ = wedge(filled, filled, (0,), (0,))
    assert (w0.n_faces(0), w0.n_faces(1), w0.n_faces(2)) == (5, 6, 2)
    w1, _ = wedge(filled, filled, (0, 1), (0, 1))
    assert (w1.n_faces(0), w1.n_faces(1), w1.n_faces(2)) == (4, 5, 2)


def test_wedge_identity_case():
    filled = from_facets([[0, 1, 2]])
    point = from_facets([[0]])
    w, _ = wedge(filled, point, (1,), (0,))
    assert w == filled


def test_wedge_dimension_mismatch():
    filled = from_facets([[0, 1, 2]])
    with pytest.raises(DimensionError):
        wedge(filled, filled, (0,), (0, 1))


def test_join_edge_edge_is_delta3():
    edge = from_facets([[0, 1]])
    j, relabel = join(edge, edge)
    assert j == from_facets([[0, 1, 2, 3]])
    assert relabel == {0: 2, 1: 3}


def test_cone_examples():
    pts3 = from_facets([[0], [1], [2]])
    k13, apex = cone(pts3)
    assert k13 == from_facets([[0, 3], [1, 3], [2, 3]])
    assert apex == 3
    c4 = from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])
    wheel, apex = cone(c4)
    assert wheel.n_faces(2) == 4 and wheel.n_faces(1) == 8


def test_duplicate_vertex_of_triangle_graph():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    dup, primed = duplicate_motif(k3, (0,))
    v = primed[0]
    expected = from_facets([[0, 1], [0, 2], [1, 2], [v, 1], [v, 2]])
    assert dup == expected  # K_4 minus the edge {0, 0'}


def test_duplicate_vertex_of_filled_triangle():
    filled = from_facets([[0, 1, 2]])
    dup, primed = duplicate_motif(filled, (0,))
    v = primed[0]
    assert dup == from_facets([[0, 1, 2], [v, 1, 2]])


def test_duplicate_motif_reads_a_foreign_motif_by_its_vertices():
    hollow = from_facets([[0, 1], [0, 2], [1, 2]])
    filled = from_facets([[0, 1, 2]])
    assert duplicate_motif(filled, core.motif(hollow, (0,))) == duplicate_motif(filled, (0,))


def test_duplication_composes():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    once, primed1 = duplicate_motif(k3, (0,))
    twice, primed2 = duplicate_motif(once, (0,))
    assert twice.n_faces(0) == 5
    # both copies attach to the same link {1, 2}
    for p in (primed1[0], primed2[0]):
        assert (1, p) in twice and (2, p) in twice


def _canonical(faces):
    """Faces by dimension, then lexicographic: the order of ``all_faces()``."""
    return sorted(faces, key=lambda f: (len(f), f))


_FACETS = st.lists(
    st.lists(_LABELS, min_size=1, max_size=4, unique=True), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(facets1=_FACETS, facets2=_FACETS, pick=st.integers(0, 2**16))
def test_constructions_match_itertools_references(facets1, facets2, pick):
    ref1, ref2 = _closure_reference(facets1), _closure_reference(facets2)
    v1 = sorted(v for (v,) in (f for f in ref1 if len(f) == 1))
    v2 = sorted(v for (v,) in (f for f in ref2 if len(f) == 1))
    # Wedge faces of a common size (the empty face gives the disjoint union),
    # and a one- and a two-vertex motif of the first complex.
    size = pick % (min(map(len, facets1 + facets2)) + 1)
    sized1 = _canonical(f for f in ref1 if len(f) == size)
    sized2 = _canonical(f for f in ref2 if len(f) == size)
    f1, f2 = sized1[pick % len(sized1)], sized2[pick // 7 % len(sized2)]
    at = pick % len(v1)
    motifs = [(v1[at],)] + ([(v1[at - 1], v1[at])] if len(v1) > 1 else [])

    fresh = max(v1) + 1
    wedge_map = dict(zip(f2, f1))
    for v in v2:
        if v not in wedge_map:
            wedge_map[v], fresh = fresh, fresh + 1
    wedged = ref1 | {tuple(sorted(wedge_map[v] for v in f)) for f in ref2}
    join_map = {v: v + max(v1) + 1 for v in v2}
    joined = {fa + tuple(join_map[v] for v in fb) for fa in ref1 for fb in ref2}
    apex = max(v1) + 1
    coned = ref1 | {f + (apex,) for f in ref1}
    duplicated = []
    for motif in motifs:
        primed = {v: max(v1) + 1 + r for r, v in enumerate(sorted(motif))}
        # The faces made of motif vertices, at least one, and link vertices.
        link = set().union(*(set(f) - set(motif) for f in ref1 if set(f) & set(motif)))
        copies = {
            tuple(sorted(primed.get(v, v) for v in f))
            for f in ref1
            if set(f) & set(motif) and set(f) <= set(motif) | link
        }
        duplicated.append((motif, primed, ref1 | copies))

    # Below the threshold every closure is enumerated with Python sets,
    # above it with numpy; both must give the reference faces.
    for threshold in (0, 1 << 20):
        saved, core._SMALL_CLOSURE = core._SMALL_CLOSURE, threshold
        try:
            k1, k2 = from_facets(facets1), from_facets(facets2)
            built = [wedge(k1, k2, f1, f2), join(k1, k2), cone(k1)]
            built += [duplicate_motif(k1, motif) for motif, _, _ in duplicated]
        finally:
            core._SMALL_CLOSURE = saved
        expected = [(wedged, wedge_map), (joined, join_map), (coned, apex)]
        expected += [(faces, primed) for _, primed, faces in duplicated]
        for (complex_, labels), (faces, ref_labels) in zip(built, expected):
            assert complex_.all_faces() == _canonical(faces)
            assert labels == ref_labels


def test_cartesian_product_k2_k2_is_c4():
    k2 = from_facets([[0, 1]])
    prod, pair_id = cartesian_product(k2, k2)
    assert prod.n_faces(0) == 4 and prod.n_faces(1) == 4
    degs = [len(prod.cofaces((v,))) for v in prod.vertices()]
    assert degs == [2, 2, 2, 2]


def test_cartesian_product_k2_p3_is_ladder():
    k2 = from_facets([[0, 1]])
    p3 = from_facets([[0, 1], [1, 2]])
    prod, _ = cartesian_product(k2, p3)
    assert prod.n_faces(0) == 6 and prod.n_faces(1) == 7


def test_cartesian_product_identity():
    g = from_facets([[0, 1], [1, 2]])
    single = from_facets([[0]])
    prod, _ = cartesian_product(g, single)
    assert prod.n_faces(0) == 3 and prod.n_faces(1) == 2


def test_cartesian_product_rejects_high_dim():
    filled = from_facets([[0, 1, 2]])
    with pytest.raises(DimensionError):
        cartesian_product(filled, filled)


def test_wedge_spectral_union_quick():
    filled = from_facets([[0, 1, 2]])
    w, _ = wedge(filled, filled, (0,), (0,))
    sw = spectrum(laplacian(w, 1, "up", NORM))
    assert sw.nonzero.tolist() == pytest.approx([3.0, 3.0], abs=1e-9)


def test_k2_times_k2_spectrum():
    k2 = from_facets([[0, 1]])
    prod, pair_id = cartesian_product(k2, k2)
    from hodgelap.constructions import product_tensor_weight_map
    from hodgelap.operators import normalized_weight_map

    w = product_tensor_weight_map(
        prod, pair_id, k2, k2, normalized_weight_map(k2), normalized_weight_map(k2)
    )
    s = spectrum(laplacian(prod, 0, "up", WeightScheme.from_map(w)))
    np.testing.assert_allclose(s.values, [0, 1, 1, 2], atol=1e-9)


def test_product_tensor_empty_face_weight_adds_left_to_right():
    from hodgelap.constructions import product_tensor_weight_map

    g1 = from_facets([[j, j + 1] for j in range(4)])
    g2 = from_facets([[j, j + 1] for j in range(5)])
    rng = np.random.default_rng(5)
    w1, w2 = (
        dict(zip(g.all_faces(), rng.uniform(0.5, 2.0, len(g.all_faces())).tolist()))
        for g in (g1, g2)
    )
    prod, pair_id = cartesian_product(g1, g2)
    w = product_tensor_weight_map(prod, pair_id, g1, g2, w1, w2)
    vertex_weights = [w[v] for v in prod.faces(0)]
    # These weights round differently under compensated summation, which
    # the builtin sum() uses from Python 3.12 on.
    assert functools.reduce(operator.add, vertex_weights) != math.fsum(vertex_weights)
    assert w[()] == functools.reduce(operator.add, vertex_weights)
