"""Spectra, exact Betti numbers, zero counting, multiset algebra, bounds."""

import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgelap._kernels import bareiss_rank_pyint
from hodgelap.core import _component_balance, _components, from_facets, is_regular
from hodgelap.errors import NumericError
from hodgelap.operators import (
    LaplacianMatrix,
    WeightScheme,
    _entrywise_weights,
    _gram,
    _weights,
    coboundary_matrix,
    entrywise_laplacian,
    laplacian,
    weighted_coboundary,
)
from hodgelap.spectra import (
    BLOCK_MIN_ROWS,
    DEFAULT_VALUE_TOL,
    BettiProfile,
    Spectrum,
    _block_eigvalsh,
    _interlacing_violation,
    betti,
    bounds_report,
    eq_mod_zeros,
    multiset_deviation,
    predicted_zero_multiplicity,
    predicted_zero_multiplicity_formulas,
    spectrum,
    subset_deviation,
)
from hodgelap.theorems import _component_top_eigenvalue_present, deterministic_custom_scheme

NORM = WeightScheme.normalized()


def test_spectrum_k3_normalized():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    s = spectrum(laplacian(k3, 0, "up", NORM))
    np.testing.assert_allclose(s.values, [0, 1.5, 1.5], atol=1e-9)


def test_spectrum_filled_triangle_up1():
    k = from_facets([[0, 1, 2]])
    s = spectrum(laplacian(k, 1, "up", NORM))
    np.testing.assert_allclose(s.values, [0, 0, 3], atol=1e-9)


def test_spectrum_two_circuit_length_six():
    from hodgelap.constructions import FamilySpec, generate

    k = generate(FamilySpec("circuit", i=2, m=6))
    s = spectrum(laplacian(k, 2, "down", NORM))
    np.testing.assert_allclose(s.values, [1, 1.5, 1.5, 2.5, 2.5, 3], atol=1e-9)


def test_betti_examples():
    assert betti(from_facets([[0, 1], [1, 2], [0, 2]])).reduced == (0, 0, 1)
    assert betti(from_facets([[0, 1, 2]])).reduced == (0, 0, 0, 0)
    assert betti(from_facets([[0, 1], [2, 3]])).reduced == (0, 1, 0)
    # sphere has b~2 = 1
    assert betti(from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])).reduced == (
        0,
        0,
        0,
        1,
    )


def test_betti_of_a_large_skeleton():
    # The 2-skeleton of the 40-vertex simplex: 780 edges, 9880 triangles.
    # Its only homology is in the top degree, b~_2 = C(39, 3).  This runs
    # in well under a second with sparse unit-pivot elimination; a dense
    # elimination of D_1 takes tens of seconds.
    k = from_facets(list(combinations(range(40), 3)))
    assert betti(k).reduced == (0, 0, 0, comb(39, 3))


def test_betti_agrees_with_float_rank(random_complexes):
    for k in random_complexes:
        profile = betti(k)
        for j in range(-1, k.dim + 1):
            d_j = coboundary_matrix(k, j).matrix.toarray()
            d_jm1 = coboundary_matrix(k, j - 1).matrix.toarray() if j - 1 >= -1 else np.zeros((k.n_faces(j), 0))
            r_j = np.linalg.matrix_rank(d_j) if d_j.size else 0
            r_jm1 = np.linalg.matrix_rank(d_jm1) if d_jm1.size else 0
            assert profile[j] == k.n_faces(j) - r_j - r_jm1


def test_euler_identity_exact(fixtures, random_complexes):
    for k in list(fixtures.values()) + random_complexes:
        chi_c, chi_b = betti(k).euler_characteristics()
        assert chi_c == chi_b


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=7,
    )
)
def test_cleared_ranks_match_each_coboundary_ranked_alone(facets):
    k = from_facets(facets)
    profile = betti(k)
    dense = {j: coboundary_matrix(k, j).matrix.toarray() for j in range(-1, k.dim + 1)}
    ranks = {j: bareiss_rank_pyint(d) for j, d in dense.items()}
    ranks[-2] = 0
    for j in range(-1, k.dim + 1):
        assert profile[j] == k.n_faces(j) - ranks[j] - ranks[j - 1], j
        # The pivot rows that clear the columns of D_{j+1} are independent.
        pivots = k._memo[("pivots", j)]
        assert not pivots.flags.writeable
        assert bareiss_rank_pyint(dense[j][pivots]) == len(pivots) <= ranks[j]
    chi_c, chi_b = profile.euler_characteristics()
    assert chi_c == chi_b


def test_predicted_zero_multiplicity_examples():
    hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    assert predicted_zero_multiplicity(hollow, 0, "up") == 1
    filled = from_facets([[0, 1, 2]])
    assert predicted_zero_multiplicity(filled, 1, "up") == 2
    # top-dimension up operator is the zero map
    assert predicted_zero_multiplicity(filled, 2, "up") == filled.n_faces(2)
    f1, f2 = predicted_zero_multiplicity_formulas(filled, 1)
    assert f1 == f2 == 2


def test_disagreeing_zero_count_formulas_raise_a_numeric_error():
    # The hollow triangle has b~1 = 1; a profile that says 0 breaks the
    # Euler identity, so the two up-formulas disagree at i = 0 (1 vs 0).
    hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    wrong = BettiProfile(reduced=(0, 0, 0), cochain_dims=(1, 3, 3))
    assert predicted_zero_multiplicity_formulas(hollow, 0, wrong) == (1, 0)
    with pytest.raises(NumericError, match="formulas disagree at i=0"):
        predicted_zero_multiplicity(hollow, 0, "up", wrong)


def test_zero_counts_match_observed(fixtures, random_complexes):
    pool = list(fixtures.values()) + random_complexes[:8]
    for k in pool:
        profile = betti(k)
        schemes = [WeightScheme.combinatorial(), NORM, deterministic_custom_scheme(k, 1)]
        for scheme in schemes:
            for i in range(-1, k.dim + 1):
                for direction in ("up", "down", "full"):
                    s = spectrum(laplacian(k, i, direction, scheme))
                    assert s.zero_multiplicity == predicted_zero_multiplicity(
                        k, i, direction, profile
                    ), (i, direction, scheme.kind)


def test_eq_mod_zeros_examples():
    assert eq_mod_zeros(np.array([0, 0, 3.0]), np.array([3.0]))
    assert not eq_mod_zeros(np.array([1.5, 1.5]), np.array([1.5]))
    assert eq_mod_zeros(np.array([0, 1, 1, 2.0]), np.array([1, 1, 2, 0, 0.0]))


def test_eq_mod_zeros_is_equivalence(fixtures):
    spectra = []
    for k in fixtures.values():
        for i in range(0, k.dim + 1):
            spectra.append(spectrum(laplacian(k, i, "up", NORM)))
    for a in spectra[:10]:
        assert eq_mod_zeros(a, a)
        for b in spectra[:10]:
            assert eq_mod_zeros(a, b) == eq_mod_zeros(b, a)
            for c in spectra[:10]:
                if eq_mod_zeros(a, b) and eq_mod_zeros(b, c):
                    assert eq_mod_zeros(a, c)


def test_multiset_helpers():
    assert multiset_deviation([1, 2], [2, 1]) == 0
    assert multiset_deviation([1], [1, 1]) == float("inf")
    assert subset_deviation([1.0], [0.5, 1.0 + 1e-9, 3.0]) <= 1e-8
    assert subset_deviation([1.0, 1.0], [1.0, 3.0]) == float("inf")


@pytest.mark.parametrize("gap", [1, 3])
def test_interlacing_violation_matches_the_loop(gap):
    rng = np.random.default_rng(gap)
    for n in range(6):
        mu = np.sort(rng.normal(size=n + gap))
        for lam in (np.sort(rng.normal(size=n)), mu[:n] + 1e-3):
            worst = 0.0
            for j in range(n):
                worst = max(worst, mu[j] - lam[j], lam[j] - mu[j + gap])
            assert _interlacing_violation(mu, lam, gap) == max(0.0, worst), (n, lam)


def test_spectrum_zero_tol_default():
    s = Spectrum.from_values([0.0, 1e-10, 5.0])
    assert s.zero_multiplicity == 2
    assert s.multiplicity_at(5.0) == 1 and s.contains(5.0)


def test_bounds_k3_normalized_tight():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    rep = bounds_report(k3, 0, NORM)
    assert rep.applicable
    np.testing.assert_allclose(rep.normalized_degree_lower, 1.5)
    np.testing.assert_allclose(rep.lambda_max, 1.5, atol=1e-9)
    assert rep.all_satisfied


def test_bounds_filled_triangle_tight_upper():
    k = from_facets([[0, 1, 2]])
    rep = bounds_report(k, 1, NORM)
    assert rep.upper_bound == 3
    np.testing.assert_allclose(rep.lambda_max, 3.0, atol=1e-9)
    assert rep.all_satisfied


def test_bounds_k3_combinatorial():
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    rep = bounds_report(k3, 0, WeightScheme.combinatorial())
    assert rep.upper_bound == 4  # (i+2) * max degree = 2*2
    np.testing.assert_allclose(rep.lambda_max, 3.0, atol=1e-9)
    assert rep.all_satisfied


def test_bounds_not_applicable_without_cofaces():
    k = from_facets([[0, 1]])
    rep = bounds_report(k, 1, NORM)
    assert not rep.applicable


def test_bounds_hold_on_random_complexes(random_complexes):
    for k in random_complexes:
        for i in range(0, k.dim):
            for scheme in (WeightScheme.combinatorial(), NORM, deterministic_custom_scheme(k, 2)):
                rep = bounds_report(k, i, scheme)
                if rep.applicable:
                    assert rep.all_satisfied, (i, scheme.kind, rep)


def test_degrees_add_cofaces_in_canonical_order():
    # K_{1,3} with edge weights 1, 1e-16, 1e-16 on the center's edges.  Left
    # to right the center's degree is 1.0; a compensated sum (Python's
    # sum() of floats from 3.12 on) would give 1.0000000000000002.
    k = from_facets([[0, 1], [0, 2], [0, 3]])
    edges = {(0, 1): 1.0, (0, 2): 1e-16, (0, 3): 1e-16}
    scheme = WeightScheme.from_map({**edges, (0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): 1.0})
    assert bounds_report(k, 0, scheme).max_degree == 1.0
    # is_regular sees the same degrees, from the edge weights in face order:
    # the center (1.0) first differs from leaf 2 (1e-16), not from leaf 1 (1.0).
    assert is_regular(k, 0, [edges[f] for f in k.faces(1)]) == (False, ((0,), (2,)))


def _random_part(seed, n_vertices, n_triangles, n_edges):
    """Facets of a random 2-complex: distinct triangles plus edges, drawn uniformly."""
    rng = np.random.default_rng(seed)
    triangles = list(combinations(range(n_vertices), 3))
    facets = {triangles[t] for t in rng.choice(len(triangles), n_triangles, replace=False)}
    facets |= {tuple(sorted(rng.choice(n_vertices, 2, replace=False).tolist())) for _ in range(n_edges)}
    return sorted(facets)


def _scheme(kind, k):
    if kind == "custom":
        return deterministic_custom_scheme(k, 3)
    return WeightScheme(kind)


def _check_spectra(k, scheme):
    """Every spectrum against the whole-matrix eigensolve and the zero counts."""
    profile = betti(k)
    out = {}
    for i in range(-1, k.dim + 1):
        for direction in ("up", "down", "full"):
            lap = laplacian(k, i, direction, scheme)
            s = spectrum(lap)
            whole = np.linalg.eigvalsh(lap.symmetric)
            assert len(s) == lap.n
            scale = max(1.0, float(np.abs(whole).max(initial=0.0)))
            assert np.abs(s.values - whole).max(initial=0.0) <= 1e-12 * scale, (i, direction)
            assert s.zero_multiplicity == predicted_zero_multiplicity(k, i, direction, profile)
            out[i, direction] = s.values
    return out


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    parts=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(12, 40), st.integers(70, 100),
                  st.integers(0, 20)),
        min_size=3,
        max_size=3,
    ),
    kind=st.sampled_from(["normalized", "combinatorial", "custom"]),
)
def test_block_spectra_of_disjoint_unions(parts, kind):
    # The parts sit on disjoint vertex ranges, so each part is a union of
    # components of the whole, and the up side of L_1 is solved in blocks.
    pieces, facets, offset = [], [], 0
    for seed, n_vertices, n_triangles, n_edges in parts:
        part = _random_part(seed, n_vertices, n_triangles, n_edges)
        pieces.append((from_facets([list(f) for f in part]), offset))
        facets += [[v + offset for v in f] for f in part]
        offset += n_vertices
    k = from_facets(facets)
    assert k.n_faces(2) >= BLOCK_MIN_ROWS
    if kind == "custom":
        # The union carries each part's own custom weights.
        weights = {(): 1.0}
        for part, shift in pieces:
            for f, w in _scheme(kind, part).custom.items():
                if f:
                    weights[tuple(v + shift for v in f)] = w
        scheme = WeightScheme.from_map(weights)
    else:
        scheme = WeightScheme(kind)
    whole = _check_spectra(k, scheme)
    # L_i^up for i >= 0 and L_i^down, L_i for i >= 1 see no face of
    # dimension below 0, the only faces the parts share, so the spectrum
    # of the union is the union of the parts' spectra.
    by_part = [_check_spectra(part, _scheme(kind, part)) for part, _ in pieces]
    for (i, direction), values in whole.items():
        if i >= (0 if direction == "up" else 1):
            union = np.sort(np.concatenate([p.get((i, direction), []) for p in by_part]))
            np.testing.assert_allclose(values, union, rtol=0, atol=1e-12 * max(1.0, values.max()))


@pytest.mark.parametrize(
    "facets",
    [
        # one component: a strip of 248 triangles, each sharing an edge
        # with the next
        [[j, j + 1, j + 2] for j in range(248)],
        # all singletons: 210 disjoint triangles
        [[3 * j, 3 * j + 1, 3 * j + 2] for j in range(210)],
    ],
    ids=["one-component", "all-singletons"],
)
@pytest.mark.parametrize("kind", ["normalized", "combinatorial", "custom"])
def test_block_spectra_extreme_splits(facets, kind):
    k = from_facets(facets)
    assert k.n_faces(2) >= BLOCK_MIN_ROWS
    _check_spectra(k, _scheme(kind, k))


def test_each_term_is_solved_on_its_smaller_side(monkeypatch):
    # The strip has 250 vertices, 497 edges and 248 triangles.
    k = from_facets([[j, j + 1, j + 2] for j in range(248)])
    solve = np.linalg.eigvalsh
    shapes = []

    def recording(matrix):
        shapes.append(np.shape(matrix)[-2:])
        return solve(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    # L_2^up stores no term: its spectrum is all exact zeros, solved by nothing.
    s = spectrum(laplacian(k, 2, "up", NORM))
    assert shapes == [] and len(s) == 248 and not s.values.any()
    # Full L_1: the 248-row side of B_1 and the 250-column side of B_0,
    # never the 497 x 497 sum.
    s = spectrum(laplacian(k, 1, "full", NORM))
    assert len(s) == 497 and max(rows for rows, _ in shapes) <= 250
    # Full L_0: the down term B_{-1} is the all-ones column, a 1 x 1 side.
    shapes.clear()
    s = spectrum(laplacian(k, 0, "full", NORM))
    assert len(s) == 250 and (1, 1) in shapes


def _sparse_triangles(seed, n_vertices, n_draws):
    """Random triangles on many vertices: mostly disjoint, a few sharing edges."""
    draws = np.sort(np.random.default_rng(seed).integers(0, n_vertices, (n_draws, 3)), axis=1)
    return draws[(np.diff(draws, axis=1) != 0).all(axis=1)].tolist()


def test_block_path_never_allocates_the_whole_side():
    disjoint = [[3 * j, 3 * j + 1, 3 * j + 2] for j in range(700, 1600)]
    k = from_facets(_sparse_triangles(0, 2000, 1200) + disjoint)
    lap = laplacian(k, 1, "up", NORM)
    side = lap.up.shape[0]
    assert BLOCK_MIN_ROWS <= 2000 <= side < lap.n
    tracemalloc.start()
    try:
        s = spectrum(lap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == lap.n
    # The whole dense side would take side**2 * 8 bytes, about 35 MB; the
    # blocks and the entry pairs they are summed from take about 1 MB.
    assert peak < side * side * 8 / 20


def _strips():
    """Disjoint strips of 1..30 triangles, each strip one component, plus 40 isolated edges."""
    facets, offset = [], 0
    for length in range(1, 31):
        facets += [[offset + j, offset + j + 1, offset + j + 2] for j in range(length)]
        offset += length + 2
    facets += [[offset + 2 * j, offset + 2 * j + 1] for j in range(40)]
    return from_facets(facets)


@pytest.mark.parametrize("of", ["rows", "columns"])
@pytest.mark.parametrize("kind", ["normalized", "combinatorial", "custom"])
def test_blocks_are_the_blocks_of_the_whole_side(of, kind, component_rows):
    # Blocks of many distinct sizes on both sides of B_1.
    k = _strips()
    table = laplacian(k, 1, "up", _scheme(kind, k)).up
    labels = _components(table, of)
    values, cuts = _block_eigvalsh(table, of)
    blocks = np.split(values, cuts)
    firsts = np.unique(labels)
    assert len(blocks) == len(firsts) and len({len(b) for b in blocks}) >= 30
    gram = _gram(table, of)
    for first, block in zip(firsts, blocks):
        rows = np.flatnonzero(labels == first)
        assert np.array_equal(block, np.linalg.eigvalsh(gram[np.ix_(rows, rows)]))
    # A component is labelled by its first row, the first triangle of its
    # strip, so the blocks line up with the flags of _component_balance, in
    # first-row order; on the columns side the edges with no coface come
    # after them.
    balance = _component_balance(k, 2)
    assert [rows[0] for rows in component_rows(k, 2)] == firsts[: len(balance)].tolist()
    assert (firsts[len(balance) :] >= table.shape[0]).all()


@pytest.mark.parametrize("i", [0, 1])
def test_the_boundary_check_reads_the_blocks_spectrum_solved(i, monkeypatch):
    # Both sides of B_0 and B_1 have at least BLOCK_MIN_ROWS rows, and every
    # strip and isolated edge is a component of its own.
    k = _strips()
    lap = laplacian(k, i, "up", NORM)
    assert min(lap.up.shape[0], lap.n) >= BLOCK_MIN_ROWS
    spectrum(lap)
    calls = []

    def recording(solve):
        return lambda matrix: calls.append(np.shape(matrix)) or solve(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    per_comp, present, _ = _component_top_eigenvalue_present(k, i, DEFAULT_VALUE_TOL)
    assert calls == []
    assert len(per_comp) == (70 if i == 0 else 30) and present
    assert all(balanced == held for balanced, held in per_comp)


def test_the_boundary_check_never_builds_the_whole_side():
    k = from_facets(_sparse_triangles(0, 20000, 10000))
    side = k.n_faces(2)
    tracemalloc.start()
    try:
        per_comp, present, s = _component_top_eigenvalue_present(k, 1, DEFAULT_VALUE_TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(per_comp) > 1 and present and len(s) == k.n_faces(1)
    assert all(balanced == held for balanced, held in per_comp)
    # The whole dense side would take side**2 * 8 bytes, about 800 MB.
    assert peak < side * side * 8 / 20


def test_up_spectrum_of_ten_thousand_triangles():
    k = from_facets(_sparse_triangles(0, 20000, 10000))
    assert k.n_faces(2) >= 9900
    s = spectrum(laplacian(k, 1, "up", NORM))
    assert len(s) == k.n_faces(1)
    assert s.zero_multiplicity == predicted_zero_multiplicity(k, 1, "up")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=7,
    ),
    relabel=st.permutations(range(8)),
)
def test_spectra_and_betti_numbers_ignore_vertex_labels(facets, relabel):
    k = from_facets(facets)
    moved = from_facets([[relabel[v] for v in f] for f in facets])
    profile = betti(k)
    assert betti(moved) == profile
    for scheme in (NORM, WeightScheme.combinatorial()):
        for i in range(-1, k.dim + 1):
            for direction in ("up", "down", "full"):
                a = spectrum(laplacian(k, i, direction, scheme))
                b = spectrum(laplacian(moved, i, direction, scheme))
                tol = 1e-12 * max(1.0, float(a.values.max()))
                assert np.abs(a.values - b.values).max() <= tol, (i, direction)
            # Hodge: the full operator's kernel is the i-th reduced homology.
            assert a.zero_multiplicity == profile[i], i


@pytest.mark.parametrize(
    "facets, memo",
    [([[0, 1, 2], [1, 2, 3]], "eigvalsh"), ([[j, j + 1, j + 2] for j in range(248)], "blocks")],
    ids=["whole-side", "block-side"],
)
def test_writing_into_a_spectrum_leaves_the_solve_memo_intact(facets, memo):
    k = from_facets(facets)
    lap = laplacian(k, 1, "up", NORM)
    first = spectrum(lap)
    expected = first.values.copy()
    first.values[:] = -1.0
    assert np.array_equal(spectrum(lap).values, expected)
    # The memo holds one read-only eigenvalue array per solved side, no Gram;
    # a side solved block by block keeps the cuts between its components too.
    (key, stored), = lap.up._memo.items()
    values = stored[0] if memo == "blocks" else stored
    assert key[0] == memo and values.ndim == 1 and not values.flags.writeable


def _oracle_spectrum(k, i, direction, scheme):
    """eigvalsh of the W^{1/2}-conjugated entrywise operator, with no table or memo."""
    sqrt_w = np.sqrt([_entrywise_weights(k, scheme)[f] for f in k.faces(i)])
    oracle = entrywise_laplacian(k, i, direction, scheme)
    return np.linalg.eigvalsh(oracle * sqrt_w[:, None] / sqrt_w[None, :])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=7,
    ),
    seed=st.integers(0, 2**16),
)
def test_euler_identity_and_up_down_duality(facets, seed):
    k = from_facets(facets)
    chi_c, chi_b = betti(k).euler_characteristics()
    assert chi_c == chi_b == sum((-1) ** (j % 2) * k.n_faces(j) for j in range(-1, k.dim + 1))
    for scheme in (WeightScheme.combinatorial(), NORM, deterministic_custom_scheme(k, seed)):
        wmap = _weights(k, scheme)
        for i in range(-1, k.dim):
            up = spectrum(laplacian(k, i, "up", scheme))
            down = spectrum(laplacian(k, i + 1, "down", scheme))
            # The same two operators built from the one memoized B_i.
            b = weighted_coboundary(k, i, scheme)
            shared = [
                spectrum(LaplacianMatrix(b, None, np.array([wmap[f] for f in k.faces(i)]))),
                spectrum(LaplacianMatrix(None, b, np.array([wmap[f] for f in k.faces(i + 1)]))),
            ]
            refs = [
                _oracle_spectrum(k, i, "up", scheme),
                _oracle_spectrum(k, i + 1, "down", scheme),
            ]
            tol = 1e-9 * max(1.0, float(np.abs(np.concatenate(refs)).max()))
            assert multiset_deviation(up.nonzero, down.nonzero) <= tol, i
            for got, again, ref in zip((up, down), shared, refs):
                assert np.abs(got.values - ref).max() <= tol, i
                assert np.abs(again.values - ref).max() <= tol, i


@pytest.mark.parametrize(
    "values, zero_tol",
    [
        ([], None),
        ([0.0, 0.0, -0.0], None),
        ([0.0, 1e-12, -3e-9, 2.5, 1e-8, 4.0], None),
        ([1e-9, 5.0, -7.0, 2e-7], None),
        ([0.0, 1.0, 1e-3, 2.0], 1e-3),
        ([0.0, 1.0, float("nan"), 2e-9, float("nan")], None),
        ([float("nan")], None),
        ([0.0, -float("inf"), 3.0, float("inf")], None),
        ([0.0, 1.0, -1.0], float("nan")),
        ([0.0, 1.0], -1.0),
    ],
)
def test_zero_split_matches_the_mask_forms(values, zero_tol):
    spec = Spectrum.from_values(values, zero_tol)
    vals = np.sort(np.asarray(values, dtype=float))
    if zero_tol is None:
        scale = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
        zero_tol = 1e-8 * scale
    assert spec.zero_tol == zero_tol or (zero_tol != zero_tol and spec.zero_tol != spec.zero_tol)
    assert spec.zero_multiplicity == int(np.sum(vals <= zero_tol))
    assert np.array_equal(spec.nonzero, vals[vals > zero_tol])
    assert spec.nonzero.flags.writeable and not np.shares_memory(spec.nonzero, spec.values)
