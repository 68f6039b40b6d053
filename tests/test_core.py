"""Face lattice, signs, subcomplex selectors, duals, balance, chromatic."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodgelap import core
from hodgelap.core import (
    boundary_sign,
    chromatic_number_1skel,
    closure_of,
    dual_graph,
    from_facets,
    is_regular,
    motif,
    signed_balance,
)
from hodgelap.errors import (
    DimensionError,
    IncidenceError,
    MalformedFacetError,
    ResourceError,
    UnknownFaceError,
)
from hodgelap.corpus import full_corpus
from hodgelap.operators import coboundary_matrix, normalized_weight_map


def test_from_facets_sizes():
    k = from_facets([[0, 1, 2]])
    assert [k.n_faces(d) for d in (-1, 0, 1, 2)] == [1, 3, 3, 1]
    hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    assert hollow.dim == 1 and hollow.n_faces(1) == 3
    two = from_facets([[0, 1, 2], [1, 2, 3]])
    assert two.n_faces(0) == 4 and two.n_faces(1) == 5 and two.n_faces(2) == 2


def test_from_facets_idempotent(random_complexes):
    k = from_facets([[0, 1, 2], [1, 2, 3], [1, 2]])  # redundant face allowed
    assert sorted(k.facets()) == [(0, 1, 2), (1, 2, 3)]
    for c in [k, *random_complexes]:
        facets = c.facets()
        assert from_facets([list(f) for f in facets]) == c
        assert not any(set(f) < set(g) for f in facets for g in facets)
    void = closure_of([])
    assert void.facets() == [()]
    assert closure_of(void.facets()) == void


def test_from_facets_rejects_malformed():
    with pytest.raises(MalformedFacetError):
        from_facets([[0, 0, 1]])
    with pytest.raises(MalformedFacetError):
        from_facets([[]])
    with pytest.raises(MalformedFacetError):
        from_facets([[0, -1]])


@pytest.mark.parametrize(
    "faces",
    [[(0, 0, 1)], [(-1, 2)], [(True, 2)], [(0.5, 1)], [(None, 1)], [(0, 1), (), (2, 2)]],
    ids=["repeated", "negative", "bool", "float", "none", "after-empty"],
)
def test_closure_of_rejects_malformed_faces_as_from_facets_does(faces):
    with pytest.raises(MalformedFacetError) as expected:
        from_facets([f for f in faces if f])
    with pytest.raises(MalformedFacetError) as got:
        closure_of(faces)
    assert str(got.value) == str(expected.value)


def test_boundary_sign_examples():
    assert boundary_sign((0, 1, 2), (1, 2)) == 1
    assert boundary_sign((0, 1, 2), (0, 2)) == -1
    assert boundary_sign((0, 1, 2, 3), (0, 1, 2)) == -1
    with pytest.raises(IncidenceError):
        boundary_sign((0, 1, 2), (3,))


def test_boundary_of_boundary_signed(random_complexes):
    # For every (i+1)-face and (i-1)-subface the two intermediate paths cancel.
    for k in random_complexes:
        for d in range(1, k.dim + 1):
            for g in k.faces(d):
                for e in combinations(g, d - 1):
                    mids = [m for m in combinations(g, d) if set(e) <= set(m)]
                    assert len(mids) == 2
                    total = sum(
                        boundary_sign(g, m) * boundary_sign(m, tuple(e)) for m in mids
                    )
                    assert total == 0


def test_downward_closure_property(random_complexes):
    for k in random_complexes:
        for d in range(0, k.dim + 1):
            for f in k.faces(d):
                for sub in combinations(f, d):
                    assert tuple(sub) in k


def test_closure_star_link_filled_triangle():
    # Closure, star and link of a vertex, the star and link read from its motif.
    k = from_facets([[0, 1, 2]])
    sig = motif(k, (0,))
    assert sig.star == ((0,), (0, 1), (0, 2), (0, 1, 2))
    assert sig.link.all_faces() == [(), (1,), (2,), (1, 2)]
    assert closure_of([(0,)]).all_faces() == [(), (0,)]


def test_closure_star_link_shared_edge():
    k = from_facets([[0, 1, 2], [1, 2, 3]])
    # Star and link of vertex 0 via brute force over the definitions.
    sig = motif(k, (0,))
    brute_st = [f for d in range(0, k.dim + 1) for f in k.faces(d) if 0 in f]
    assert list(sig.star) == brute_st
    assert sig.link == closure_of([(1, 2)])


def test_closure_star_link_unknown_face():
    k = from_facets([[0, 1]])
    with pytest.raises(UnknownFaceError):
        motif(k, (5,))


def test_closed_star_is_the_closure_of_the_whole_star():
    for k in full_corpus(0).values():
        for v in k.vertices():
            sig = motif(k, [v])
            assert sig.closed_star == closure_of(sig.star)


def test_motif_of_a_large_simplex_closes_only_its_star_facets(monkeypatch):
    # The vertex star of the 14-vertex simplex has 2**13 faces.  Closing all
    # of them enumerates 2 * 3**13 subsets; closing its one facet, 2**14.
    subsets = []
    real = core.closure_of

    def counting(faces):
        faces = list(faces)
        subsets.append(sum(1 << len(f) for f in faces))
        return real(faces)

    monkeypatch.setattr(core, "closure_of", counting)
    sig = motif(from_facets([list(range(14))]), [0])
    assert len(sig.star) == 1 << 13 and sig.link_dim == 12
    # The star and link come from the boundary tables, with no closure at all.
    assert max(subsets, default=0) <= 1 << 14


def test_dual_graph_down_examples():
    two = from_facets([[0, 1, 2], [1, 2, 3]])
    d = dual_graph(two, 2, "down")
    assert len(d.edges) == 1 and d.edges[0][:2] == (0, 1)

    bdelta3 = from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    d = dual_graph(bdelta3, 2, "down")
    assert len(d.edges) == 6  # K_4

    # brute force: down edges are exactly pairs with codimension-one meets
    for k in (two, bdelta3):
        for i in range(1, k.dim + 1):
            expected = {
                (min(a, b), max(a, b))
                for (fa, a), (fb, b) in combinations(
                    [(f, k.index(f)) for f in k.faces(i)], 2
                )
                if len(set(fa) & set(fb)) == i
            }
            got = {(a, b) for a, b, _ in dual_graph(k, i, "down").edges}
            assert got == expected


def test_dual_graph_up_of_graph_is_graph():
    g = from_facets([[0, 1], [1, 2], [2, 3]])
    d = dual_graph(g, 0, "up")
    edges = {(d.nodes[a][0], d.nodes[b][0]) for a, b, _ in d.edges}
    assert edges == {(0, 1), (1, 2), (2, 3)}


def test_dual_graph_down_at_zero_is_complete():
    # every vertex pair shares the empty face
    g = from_facets([[0, 1], [2, 3]])
    d = dual_graph(g, 0, "down")
    assert len(d.edges) == 6


def test_path_connected_components(path_components):
    shared_edge = from_facets([[0, 1, 2], [1, 2, 3]])
    assert len(core._component_balance(shared_edge, 2)) == 1
    shared_vertex = from_facets([[0, 1, 2], [2, 3, 4]])
    assert len(core._component_balance(shared_vertex, 2)) == 2
    simplex = from_facets([[0, 1, 2, 3]])
    for i in (0, 1, 2, 3):
        assert len(core._component_balance(simplex, i)) == 1
        assert len(path_components(simplex, i)) == 1
    with pytest.raises(DimensionError):
        core._component_balance(simplex, 4)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_cycles_are_orientable_circuits(m):
    cm = from_facets([[j, (j + 1) % m] for j in range(m)])
    res = signed_balance(cm, 1, "antiparallel")
    assert res.balanced and res.assignment is not None
    # verify the certificate on every dual edge
    dual = dual_graph(cm, 1, "down")
    for a, b, s in dual.edges:
        assert res.assignment[dual.nodes[a]] * res.assignment[dual.nodes[b]] * s == -1


def test_c3_parallel_balance_fails_with_cycle_certificate():
    c3 = from_facets([[0, 1], [1, 2], [0, 2]])
    res = signed_balance(c3, 1, "parallel")
    assert not res.balanced and res.assignment is None


def test_single_simplex_balance_both_modes():
    k = from_facets([[0, 1, 2]])
    assert signed_balance(k, 2, "antiparallel").balanced
    assert signed_balance(k, 2, "parallel").balanced


def test_balance_matches_exhaustive_search(random_complexes):
    from hodgelap._kernels import exhaustive_balance

    for k in random_complexes:
        for q in range(1, k.dim + 1):
            if k.n_faces(q) > 12:
                continue
            dual = dual_graph(k, q, "down")
            edges = [(a, b, s) for a, b, s in dual.edges]
            for mode, target in (("antiparallel", -1), ("parallel", 1)):
                fast = signed_balance(k, q, mode).balanced
                brute = exhaustive_balance(len(dual.nodes), edges, target) is not None
                assert fast == brute, (mode, q, edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=8,
    )
)
# q = 0 on one, two and three vertices, whose down dual graphs are complete;
# an edge with three triangles and a vertex with three edges, where no
# orientation exists; and a tetrahedron's boundary, where every edge has two.
@example(facets=[[0]])
@example(facets=[[0], [1]])
@example(facets=[[0], [1], [2]])
@example(facets=[[0, 1, 2], [0, 1, 3], [0, 1, 4]])
@example(facets=[[0, 1], [0, 2], [0, 3]])
@example(facets=[[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
def test_balance_properties_on_generated_complexes(facets, path_components, component_rows):
    from hodgelap._kernels import exhaustive_balance

    k = from_facets(facets)
    for q in range(0, k.dim + 1):
        balance = core._component_balance(k, q)
        results = {mode: signed_balance(k, q, mode) for mode in ("antiparallel", "parallel")}
        # Balance is labelled on the table D_{q-1} itself: no entry pairs of
        # the down dual graph are built, or left memoized on the table.
        assert coboundary_matrix(k, q - 1)._pairs == {}, q
        dual = dual_graph(k, q, "down")
        members = component_rows(k, q)
        assert len(balance) == len(members)
        assert sorted(j for rows in members for j in rows) == list(range(k.n_faces(q)))
        faces = k.faces(q)
        assert [[faces[j] for j in rows] for rows in members] == path_components(k, q)
        for rows, balanced in zip(members, balance):
            if len(rows) <= 12:
                edges = [(rows.index(a), rows.index(b), s) for a, b, s in dual.edges if a in rows]
                assert balanced == (exhaustive_balance(len(rows), edges, 1) is not None), q
        for mode, target in (("antiparallel", -1), ("parallel", 1)):
            res = results[mode]
            if len(dual.nodes) <= 12:
                brute = exhaustive_balance(len(dual.nodes), dual.edges, target)
                assert res.balanced == (brute is not None), (mode, q)
            if mode == "parallel":
                assert res.balanced == all(balance)
            if res.balanced:
                x = [res.assignment[f] for f in dual.nodes]
                assert all(x[a] * x[b] * s == target for a, b, s in dual.edges)
                assert all(x[rows[0]] == 1 for rows in members)  # each first face
            else:
                assert res.assignment is None


def _grid_surface(m, n, twisted):
    """The m x n grid, each square cut into two triangles, glued into a torus or Klein bottle."""

    def vertex(i, j):
        if j == n and twisted:
            i = -i
        return (i % m) * n + j % n

    facets = []
    for i in range(m):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [[a, b, d], [a, c, d]]
    return from_facets(facets)


@pytest.mark.parametrize("twisted", [False, True], ids=["torus", "klein"])
def test_grid_surfaces_are_orientable_exactly_when_b2_is_one(twisted):
    from hodgelap.spectra import betti

    sizes = [(m, n) for m in range(3, 9) for n in range(3, 9)] + [(100, 100)]
    for m, n in sizes:
        k = _grid_surface(m, n, twisted)
        assert [k.n_faces(d) for d in range(3)] == [m * n, 3 * m * n, 2 * m * n]
        b2 = betti(k)[2]
        assert b2 == (0 if twisted else 1)
        assert signed_balance(k, 2, "antiparallel").balanced == (b2 == 1), (m, n)


def test_chromatic_number_examples():
    assert chromatic_number_1skel(from_facets([[0, 1], [0, 2], [1, 2]])) == 3
    assert chromatic_number_1skel(from_facets([[0, 1], [1, 2]])) == 2
    k4 = from_facets([[a, b] for a in range(4) for b in range(a + 1, 4)])
    assert chromatic_number_1skel(k4) == 4
    assert chromatic_number_1skel(from_facets([[0], [1]])) == 1


def test_chromatic_number_of_a_torus_deeper_than_the_recursion_limit(monkeypatch):
    # 1089 vertices: a search that recursed once per colored vertex would
    # pass the interpreter's default recursion limit of 1000.  On the torus
    # the DSATUR coloring meets the triangle bound, so no search runs at
    # all; on an odd cycle of 1201 shuffled labels the bounds are 2 and 3,
    # and the failing search for a 2-coloring backtracks through every vertex.
    torus = _grid_surface(33, 33, False)
    label = np.random.default_rng(0).permutation(1201).tolist()
    cycle = from_facets([[label[j], label[(j + 1) % 1201]] for j in range(1201)])
    assert chromatic_number_1skel(cycle) == 3
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 0)
    assert chromatic_number_1skel(torus) == 3
    with pytest.raises(ResourceError):
        chromatic_number_1skel(cycle)


def test_chromatic_number_budget(monkeypatch):
    # C_5: clique bound 2 < chromatic number 3, so a search must run.
    c5 = from_facets([[j, (j + 1) % 5] for j in range(5)])
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 1)
    with pytest.raises(ResourceError):
        chromatic_number_1skel(c5)


def test_is_regular():
    bdelta3 = from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    ok, r = is_regular(bdelta3, 1)
    assert ok and r == 2
    two = from_facets([[0, 1, 2], [1, 2, 3]])
    ok, witness = is_regular(two, 1)
    assert not ok and len(witness) == 2
    disjoint = from_facets([[0, 1, 2], [3, 4, 5]])
    ok, r = is_regular(disjoint, 1)
    assert ok and r == 1


def test_motif_and_links():
    k = from_facets([[0, 1, 2]])
    sig = motif(k, (0,))
    assert sig.link_dim == 1
    assert sig.link.all_faces() == [(), (1,), (2,), (1, 2)]
    g = from_facets([[0, 1], [0, 2], [1, 2]])
    assert motif(g, (0,)).link_dim == 0
    with pytest.raises(UnknownFaceError):
        motif(g, (9,))


def test_boundary_table_consistency(random_complexes):
    for k in random_complexes:
        for i in range(-1, k.dim + 1):
            d = coboundary_matrix(k, i)
            assert d.index.shape == (k.n_faces(i + 1), i + 2)
            for g, cols, signs in zip(k.faces(i + 1), d.index, d.values):
                for col, sign in zip(cols, signs):
                    assert boundary_sign(g, k.faces(i)[col]) == sign


def test_pure_part_is_memoized():
    k = from_facets([[0, 1, 2], [2, 3], [4]])
    part = k.pure_part(2)
    assert part == from_facets([[0, 1, 2]])
    assert k.pure_part(2) is part
    assert k.pure_part(1) == from_facets([[0, 1], [0, 2], [1, 2], [2, 3]])
    # A complex that is its own pure part keeps no second copy.
    pure = from_facets([[0, 1, 2], [1, 2, 3]])
    assert pure.pure_part(2) is pure
    assert pure.pure_part(1) is not pure
    assert pure.pure_part(1) == closure_of([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_every_constructor_output_is_closed_and_canonical():
    # wedges, joins, cones, duplications, products, families, randoms
    from hodgelap.corpus import full_corpus

    for name, k in full_corpus(seed=1, random_count=5).items():
        assert k.faces(-1) == [()]
        for d in range(0, k.dim + 1):
            faces = k.faces(d)
            assert faces == sorted(set(faces)), name  # canonical order
            for f in faces:
                assert list(f) == sorted(set(f)), name
                for sub in combinations(f, d):
                    assert tuple(sub) in k, name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 11), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=12,
    )
)
def test_path_connected_components_match_networkx(facets, path_components, component_rows):
    k = from_facets(facets)
    for i in range(0, k.dim + 1):
        faces = k.faces(i)
        got = [[faces[j] for j in rows] for rows in component_rows(k, i)]
        assert got == path_components(k, i), i
        assert len(core._component_balance(k, i)) == len(got), i


def test_component_splitting_spectral_union(fixtures, path_components):
    # the number of path components equals the number of wedge summands:
    # the up spectrum splits as the union over component closures.  On the
    # pure (i+1)-part this holds for the normalized scheme; on the raw
    # complex it holds combinatorially (all weights 1 restrict trivially).
    from hodgelap.operators import WeightScheme, laplacian
    from hodgelap.spectra import eq_mod_zeros, spectrum
    from hodgelap.core import closure_of

    for name in ("two-triangles-shared-vertex", "moebius", "two-triangles-shared-edge"):
        k = fixtures[name]
        for i in range(0, k.dim):
            if k.n_faces(i + 1) == 0:
                continue
            for scheme, ambient in (
                (WeightScheme.normalized(), k.pure_part(i + 1)),
                (WeightScheme.combinatorial(), k),
            ):
                comps = path_components(ambient, i + 1)
                whole = spectrum(laplacian(ambient, i, "up", scheme))
                merged = np.concatenate(
                    [
                        spectrum(laplacian(closure_of(c), i, "up", scheme)).nonzero
                        for c in comps
                    ]
                )
                assert eq_mod_zeros(whole.values, np.sort(merged)), (name, i, scheme.kind)
                assert len(comps) == len(core._component_balance(ambient, i + 1))


def _reference_dual_edges(k, i, flavor):
    """Dual-graph edges from face tuples and boundary_sign alone."""
    faces = k.faces(i)
    edges = []
    for a, b in combinations(range(len(faces)), 2):
        fa, fb = faces[a], faces[b]
        if flavor == "down":
            shared = tuple(sorted(set(fa) & set(fb)))
            if len(shared) == i:
                edges.append((a, b, boundary_sign(fa, shared) * boundary_sign(fb, shared)))
        else:
            union = tuple(sorted(set(fa) | set(fb)))
            if len(union) == i + 2 and union in k:
                edges.append((a, b, boundary_sign(union, fa) * boundary_sign(union, fb)))
    return edges


def _reference_normalized_weights(k):
    """The recursive definition: weight 1 on facets, else the coface sum."""
    weights = {}
    for d in range(k.dim, -2, -1):
        for f in k.faces(d):
            cofaces = k.cofaces(f)
            if not cofaces:
                weights[f] = 1.0
            else:
                total = 0.0  # left to right, as the definition reads
                for g in cofaces:
                    total += weights[g]
                weights[f] = total
    return weights


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=7,
    ),
)
def test_incidence_consumers_match_face_tuple_references(facets):
    k = from_facets(facets)
    for i in range(0, k.dim + 1):
        for flavor in ("down", "up"):
            dual = dual_graph(k, i, flavor)
            assert dual.nodes == tuple(k.faces(i))
            assert list(dual.edges) == _reference_dual_edges(k, i, flavor), (i, flavor)
            assert all(type(x) is int for edge in dual.edges for x in edge)
    got = normalized_weight_map(k)
    ref = _reference_normalized_weights(k)
    assert got == ref
    assert list(got) == list(ref)
    assert all(type(w) is float for w in got.values())


def test_closure_past_the_budget_raises_before_enumerating(monkeypatch):
    from hodgelap import core

    with pytest.raises(ResourceError):
        closure_of([range(64)])
    with pytest.raises(ResourceError):
        from_facets([list(range(40)), [40, 41]])
    # The bound follows the closure: per face size k, the smaller of C(n, k)
    # and the sum of C(|f|, k) over the faces given.  Skeleta far past 2**20
    # subsets stay inside it.
    tetrahedra = list(combinations(range(40), 4))
    assert core._closure_bound(tetrahedra) == 1 + 40 + 780 + 9880 + 91390
    assert core._closure_bound(list(combinations(range(103), 3))) == 1 + 103 + 5253 + 176851
    monkeypatch.setattr(core, "_CLOSURE_BUDGET", 32)
    # The 2-skeleton of the 5-vertex simplex: 80 subsets, 26 faces.
    assert closure_of(combinations(range(5), 3)).n_faces(2) == 10
    # The star of a vertex of the 5-vertex simplex: 162 subsets, 32 faces.
    star = [f for d in range(5) for f in combinations(range(5), d + 1) if 0 in f]
    assert closure_of(star).n_faces(4) == 1
    with pytest.raises(ResourceError):
        closure_of([range(6)])
    with pytest.raises(ResourceError):
        closure_of(combinations(range(7), 3))


def _closure_reference(facets):
    faces = {()}
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(combinations(sorted(f), k))
    return faces


# Small ids, and sparse labels on both sides of 2**63 and past it.
_LABELS = st.one_of(
    st.integers(0, 9),
    st.integers(2**62, 2**62 + 6),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(2**70, 2**70 + 6),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(_LABELS, min_size=1, max_size=5, unique=True), min_size=1, max_size=7
    )
)
def test_array_lattice_matches_itertools_and_dict_references(facets):
    facets = facets + [facets[0], facets[0][:1]]  # a repeated and a non-maximal facet
    ref = _closure_reference(facets)
    by_dim = {d: sorted(f for f in ref if len(f) == d + 1) for d in range(-1, 5)}
    maximal = [f for d in range(5) for f in by_dim[d] if not any(set(f) < set(g) for g in ref)]
    built = []
    # Below the threshold the closure is enumerated with Python sets, above
    # it with numpy; both must give the same arrays.
    for threshold in (0, 1 << 20):
        saved, core._SMALL_CLOSURE = core._SMALL_CLOSURE, threshold
        try:
            k = from_facets(facets)
        finally:
            core._SMALL_CLOSURE = saved
        built.append(k)
        assert k.dim == max(map(len, facets)) - 1
        assert all(k.faces(d) == by_dim[d] for d in range(-1, k.dim + 1))
        assert k.facets() == maximal and k.vertices() == [f[0] for f in by_dim[0]]
        assert hash(k) == hash(tuple(tuple(by_dim[d]) for d in range(-1, k.dim + 1)))
        for d in range(-1, k.dim + 1):
            rows = {f: r for r, f in enumerate(by_dim[d])}
            assert all(k.index(f) == r and f in k for f, r in rows.items())
            if d < k.dim:
                expected = [
                    [rows[g[:j] + g[j + 1 :]] for j in range(d + 2)] for g in by_dim[d + 1]
                ]
                assert coboundary_matrix(k, d).index.tolist() == expected
        v = by_dim[0][0][0]
        star = [f for d in range(k.dim + 1) for f in by_dim[d] if v in f]
        link = sorted((f for f in ref if v not in f and tuple(sorted(f + (v,))) in ref),
                      key=lambda f: (len(f), f))
        sig = motif(k, [v])
        assert list(sig.star) == star and sig.link.all_faces() == link
        assert sig.closed_star == closure_of(star)
        assert (by_dim[0][-1][0] + 1,) not in k and (v, v) not in k
    assert built[0] == built[1] == closure_of(ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(_LABELS, min_size=1, max_size=5, unique=True), min_size=1, max_size=7
    )
)
def test_cofaces_match_a_scan_of_the_faces_one_dimension_up(facets):
    k = from_facets(facets)
    for d in range(-1, k.dim + 1):
        for f in k.faces(d):
            assert k.cofaces(f) == tuple(g for g in k.faces(d + 1) if set(f) < set(g)), f
    assert k.cofaces(()) == tuple(k.faces(0))
    assert all(k.cofaces(f) == () for f in k.faces(k.dim))
    with pytest.raises(UnknownFaceError):
        k.cofaces((max(k.vertices()) + 1,))


def test_the_16_vertex_simplex_fits_the_face_keys():
    # Mixed-radix keys over 16 vertices would reach 16**16 = 2**64; the keys
    # of a face count rows one dimension down instead.
    k = from_facets([list(range(16))])
    far = from_facets([[(1 << 70) + j for j in range(16)]])
    for d in range(16):
        assert k.n_faces(d) == far.n_faces(d) == comb(16, d + 1)
    for i in range(15):
        index = coboundary_matrix(k, i).index
        assert np.array_equal(index, coboundary_matrix(far, i).index)
        upper, lower = k._layers[i + 2], k._layers[i + 1]
        for j in range(i + 2):
            assert np.array_equal(lower[index[:, j]], np.delete(upper, j, axis=1))
    assert far.faces(15) == [tuple((1 << 70) + j for j in range(16))]


def test_closure_budget_refuses_before_any_face_is_enumerated(monkeypatch):
    def enumerated(*args):
        raise AssertionError("a face was enumerated")

    for name in ("_relabel", "_closure", "combinations"):
        monkeypatch.setattr(core, name, enumerated)
    with pytest.raises(ResourceError):
        closure_of([range(64)])
    with pytest.raises(ResourceError):
        from_facets([list(range(40)), [40, 41]])
