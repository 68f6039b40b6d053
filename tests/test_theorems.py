"""Theorem checks on their defining examples, plus report integrity."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hodgelap
from hodgelap import corpus, spectra, theorems
from hodgelap.constructions import FamilySpec, generate
from hodgelap.core import chromatic_number_1skel, from_facets
from hodgelap.operators import WeightScheme, laplacian
from hodgelap.spectra import spectrum
from hodgelap.suites import run_suites
from hodgelap.theorems import (
    check_boundary_eigenvalue,
    check_bounds,
    check_cone,
    check_duplication,
    check_family,
    check_graph_product,
    check_hodge_and_duality,
    check_join,
    check_regular_dual,
    check_wedge,
)

NORM = WeightScheme.normalized()


def test_hodge_and_duality_on_examples(fixtures):
    for name in ("hollow-triangle", "filled-triangle", "moebius", "two-triangles-shared-edge"):
        report = check_hodge_and_duality(fixtures[name], name)
        assert report.passed, [it.name for it in report.items if not it.passed]


def test_hodge_on_random_complex(random_complexes):
    report = check_hodge_and_duality(random_complexes[0], "random")
    assert report.passed


def test_wedge_item_names_carry_no_rounding_noise():
    names = [item.name for report in run_suites(["wedge"]) for item in report.items]
    assert "preserved-eigenvalue/0" in names
    assert not [name for name in names if "e-" in name]


def test_wedge_union_branch(fixtures):
    filled = fixtures["filled-triangle"]
    report = check_wedge(filled, filled, (0,), (0,), 1, "tri-v-tri")
    assert report.passed
    # nonzero wedge spectrum is {3, 3} per the simplex closed form
    np.testing.assert_allclose(
        sorted(report.certificates["wedge_spectrum"])[-2:], [3.0, 3.0], atol=1e-7
    )


def test_wedge_preservation_branch(fixtures):
    filled = fixtures["filled-triangle"]
    report = check_wedge(filled, filled, (0, 1), (0, 1), 1, "tri-e-tri")
    assert report.passed
    assert any(abs(lam - 3.0) <= 1e-7 for lam in report.certificates["preserved"])
    assert any("interlacing" == it.name for it in report.items)


def test_wedge_out_of_scope_k(fixtures):
    filled = fixtures["filled-triangle"]
    report = check_wedge(filled, filled, (0, 1), (0, 1), 0, "k>i")
    assert not report.applicable


def test_join_cone_examples(fixtures):
    edge = fixtures["single-edge"]
    pts3 = from_facets([[0], [1], [2]])
    assert check_join(edge, edge, "edge*edge").passed
    report = check_cone(pts3, "cone-3pts")
    assert report.passed
    # cone over 3 points: shifted sums {2,1,1} vs up spectrum {0,1,1,2}
    k13, _ = __import__("hodgelap.constructions", fromlist=["cone"]).cone(pts3)
    s = spectrum(laplacian(k13, 0, "up", NORM))
    np.testing.assert_allclose(s.values, [0, 1, 1, 2], atol=1e-9)


def test_join_delta3_top_value(fixtures):
    edge = fixtures["single-edge"]
    report = check_join(edge, edge, "edge*edge")
    delta3 = from_facets([[0, 1, 2, 3]])
    s = spectrum(laplacian(delta3, 3, "down", NORM))
    np.testing.assert_allclose(s.values, [4.0], atol=1e-9)
    assert report.passed


def test_graph_product_k2_k2():
    k2 = from_facets([[0, 1]])
    assert check_graph_product(k2, k2, "k2xk2").passed


def test_duplication_triangle_graph(fixtures):
    report = check_duplication(fixtures["k3-graph"], (0,), "k3")
    assert report.passed
    # duplication of a vertex of the triangle graph puts 1 in the spectrum
    from hodgelap.constructions import duplicate_motif

    dup, _ = duplicate_motif(fixtures["k3-graph"], (0,))
    s = spectrum(laplacian(dup, 0, "up", NORM))
    assert s.contains(1.0, 1e-7)


def test_duplication_residuals_recorded(fixtures):
    report = check_duplication(fixtures["delta3"], (0,), "delta3")
    assert report.passed
    names = [it.name for it in report.items]
    assert "antisymmetric-eigenfunction-residual" in names
    assert "interlacing" in names


def test_boundary_eigenvalue_p3(fixtures):
    report = check_boundary_eigenvalue(fixtures["p3-path"], 0, "p3", duplication_fixtures=True)
    assert report.passed
    s = spectrum(laplacian(fixtures["p3-path"], 0, "up", NORM))
    assert s.contains(2.0, 1e-7)  # bipartite


def test_boundary_eigenvalue_c3(fixtures):
    report = check_boundary_eigenvalue(fixtures["k3-graph"], 0, "c3", duplication_fixtures=True)
    assert report.passed
    s = spectrum(laplacian(fixtures["k3-graph"], 0, "up", NORM))
    assert not s.contains(2.0, 1e-7)
    assert report.certificates["component_balance"] == [False]


def test_boundary_eigenvalue_chromatic_delta3(fixtures):
    report = check_boundary_eigenvalue(fixtures["delta3"], 2, "delta3", duplication_fixtures=True)
    assert report.passed
    assert report.certificates["chromatic_number"] == 4
    assert any("chromatic" in it.name for it in report.items)
    s = spectrum(laplacian(fixtures["delta3"], 2, "up", NORM))
    assert s.contains(4.0, 1e-7)


def test_boundary_eigenvalue_moebius_both_levels(fixtures):
    # at i=1 the Moebius complex is parallel-balanced and 3 is present;
    # at i=2 there are no 3-faces, so 4 must be absent.
    r1 = check_boundary_eigenvalue(fixtures["moebius"], 1, "moebius", duplication_fixtures=True)
    assert r1.passed and r1.certificates["component_balance"] == [True]
    r2 = check_boundary_eigenvalue(fixtures["moebius"], 2, "moebius")
    assert r2.passed and r2.certificates["component_balance"] == []


def test_regular_dual_boundary_delta3(fixtures):
    report = check_regular_dual(fixtures["boundary-delta3"], 1, "bdelta3")
    assert report.passed
    lam = spectrum(laplacian(fixtures["boundary-delta3"], 2, "down", NORM))
    np.testing.assert_allclose(lam.values, [0, 2, 2, 2], atol=1e-7)


def test_regular_dual_c4(fixtures):
    report = check_regular_dual(fixtures["c4-cycle"], 0, "c4")
    assert report.passed
    names = [it.name for it in report.items]
    assert "i+2-present/affine-reversed-dual-spectrum" in names
    assert "symmetry-about-half" in names
    assert "eigenvalue-1-iff-dual" in names


def test_regular_dual_r1_branch():
    disjoint = from_facets([[0, 1, 2], [3, 4, 5]])
    report = check_regular_dual(disjoint, 1, "disjoint")
    assert report.passed
    assert any(it.name == "r=1/constant-spectrum" for it in report.items)


def test_regular_dual_not_applicable():
    single_edge = from_facets([[0, 1]])
    report = check_regular_dual(single_edge, 1, "edge")
    assert not report.applicable


def test_family_checks_pass():
    for spec in (
        FamilySpec("circuit", i=2, m=6),
        FamilySpec("star", i=3, m=7),
        FamilySpec("moebius-circuit"),
        FamilySpec("simplex", n=6, i=2),
    ):
        assert check_family(spec, complex_=generate(spec)).passed, spec


def test_bounds_check_na():
    report = check_bounds(from_facets([[0, 1]]), 1, "normalized", "edge")
    assert not report.applicable and report.passed


def test_report_is_self_contained(fixtures):
    report = check_hodge_and_duality(fixtures["filled-triangle"], "filled")
    for item in report.items:
        assert item.passed == (item.deviation <= item.tol)
    assert report.passed == all(it.passed for it in report.items)


def test_report_json_roundtrip(fixtures):
    report = check_boundary_eigenvalue(fixtures["c4-cycle"], 0, "c4", duplication_fixtures=True)
    blob = json.dumps(report.to_dict(), default=str)
    parsed = json.loads(blob)
    assert parsed["theorem_id"] == "boundary-eigenvalue-i+2"
    assert parsed["pass"] is True
    assert set(parsed) >= {"theorem_id", "inputs", "expected", "observed", "tol", "pass", "certificates"}
    for row in parsed["checks"]:
        assert row["pass"] == (row["deviation"] <= row["tol"])


def test_custom_scheme_seeds_ignore_the_hash_seed():
    """The custom-scheme seed of a complex does not depend on ``PYTHONHASHSEED``.

    ``deterministic_custom_scheme`` seeds from ``hash(complex_)``, a hash of
    tuples of int face tuples.  On 64-bit CPython (3.8 and later) the hash of
    such a tuple is a fixed function of the ints; only str and bytes hashes
    are salted.  A 32-bit build hashes differently, so the custom-scheme
    reports would differ there, though still not between runs.
    """
    script = (
        "from hodgelap.corpus import full_corpus\n"
        "from hodgelap.theorems import deterministic_custom_scheme\n"
        "for name, k in full_corpus(0).items():\n"
        "    w = deterministic_custom_scheme(k, 0).custom\n"
        "    print(name, hash(k) & 0xFFFF, repr(sum(w.values())))\n"
    )
    src = str(Path(hodgelap.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert run.returncode == 0, run.stderr[-2000:]
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 220


def test_hodge_check_solves_each_shared_side_once(monkeypatch):
    # The hollow tetrahedron has f = (1, 4, 6, 4), so L_j^up and L_{j+1}^down
    # pick the same side of B_j for j = -1, 0, 1: 1 x 1, 4 x 4 and 4 x 4.
    # Built here: a shared fixture's memo would hold solves of earlier tests.
    k = from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    solve = spectra._eigvalsh
    shapes = {"spectrum": [], "full-size": []}

    def recorder(label):
        def record(matrix):
            shapes[label].append(np.shape(matrix))
            return solve(matrix)

        return record

    monkeypatch.setattr(spectra, "_eigvalsh", recorder("spectrum"))
    monkeypatch.setattr(theorems, "_eigvalsh", recorder("full-size"))
    report = check_hodge_and_duality(k, "boundary-delta3")
    assert report.passed
    assert sorted(shapes["spectrum"]) == sorted([(1, 1), (4, 4), (4, 4)] * 3)
    # One n x n solve of each full L_i, i = -1..2, per scheme.
    assert sorted(shapes["full-size"]) == sorted([(1, 1), (4, 4), (6, 6), (4, 4)] * 3)
    # The tables and their solved sides are memoized on the complex, so a
    # second check solves only the full-size operators, which are not.
    shapes["spectrum"].clear()
    assert check_hodge_and_duality(k, "boundary-delta3").passed
    assert shapes["spectrum"] == []
    assert len(shapes["full-size"]) == 2 * 12


@pytest.mark.parametrize("kind", ["combinatorial", "normalized", "custom"])
def test_bounds_after_the_hodge_check_solve_nothing(kind, monkeypatch):
    # A pure complex is its own pure part, so check_bounds at i = dim - 1
    # reads the B_{dim-1} side that the Hodge check solved.
    k = from_facets([[0, 1, 2], [1, 2, 3], [0, 2, 3], [3, 4, 5]])
    assert all(len(f) - 1 == k.dim for f in k.facets())
    assert check_hodge_and_duality(k, "pure").passed
    solve = spectra._eigvalsh
    calls = []

    def record(matrix):
        calls.append(np.shape(matrix))
        return solve(matrix)

    monkeypatch.setattr(spectra, "_eigvalsh", record)
    report = check_bounds(k, k.dim - 1, kind, "pure")
    assert report.applicable and report.passed
    assert calls == []


_WALKED = ("families", "hodge", "bounds", "boundary", "regular")


def test_corpus_suites_share_one_walk(monkeypatch):
    # Each suite run alone gives exactly its share of the joint run.
    alone = {name: run_suites([name], random_count=2) for name in _WALKED}
    build = corpus.full_corpus
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(corpus, "full_corpus", counting)
    together = run_suites(list(_WALKED), random_count=2)
    assert len(calls) == 1
    shares = {name: [] for name in _WALKED}
    theorem_suite = {r.theorem_id: name for name, reports in alone.items() for r in reports}
    for report in together:
        shares[theorem_suite[report.theorem_id]].append(report)
    for name in _WALKED:
        assert alone[name], name
        assert json.dumps([r.to_dict() for r in shares[name]]) == json.dumps(
            [r.to_dict() for r in alone[name]]
        ), name


def _containers(value):
    """Every list and dict inside ``value``, reports and their items included."""
    if isinstance(value, theorems.CheckReport):
        fields = (value.inputs, value.items, value.certificates, value.notes)
        return [c for field in fields for c in _containers(field)]
    if isinstance(value, theorems.CheckItem):
        return _containers(value.expected) + _containers(value.observed)
    if isinstance(value, list):
        return [value] + [c for v in value for c in _containers(v)]
    if isinstance(value, dict):
        return [value] + [c for v in value.values() for c in _containers(v)]
    return []


def test_the_hodge_check_runs_once_per_distinct_corpus_complex(monkeypatch):
    from hodgelap import suites

    # The calls are counted in this process, so it walks every shard; that
    # each group lands in exactly one shard is tested with the walk itself.
    monkeypatch.setattr(suites, "_worker_count", lambda: 1)
    checked = []

    def counting(complex_, name, **kwargs):
        checked.append(complex_)
        return check_hodge_and_duality(complex_, name, **kwargs)

    monkeypatch.setattr(suites, "check_hodge_and_duality", counting)
    reports = run_suites(["hodge", "boundary", "regular"], random_count=5)
    fixtures = corpus.full_corpus(0, random_count=5)
    assert len({id(k) for k in fixtures.values()}) < len(fixtures)
    assert len(checked) == len({id(k) for k in checked}) == len(set(fixtures.values()))
    hodge_id = "hodge-duality-zero-counts"
    hodge = [r for r in reports if r.theorem_id == hodge_id]
    assert sorted(r.inputs["complex"] for r in hodge) == sorted(fixtures)
    # The copies filed under the other names of one complex differ from its
    # reports only in the name, and no two reports hold one list or dict.
    by_name = {r.inputs["complex"]: r for r in hodge}
    names = [name for name, k in fixtures.items() if k == fixtures["delta3"]]
    assert len(names) > 1
    first = by_name[names[0]].to_dict()
    for name in names[1:]:
        assert by_name[name].to_dict() == {**first, "inputs": {**first["inputs"], "complex": name}}
    # Each name gets the boundary and regular checks its own name asks for:
    # delta3 is a duplication fixture, simplex-n4 a regular fixture only.
    assert {"delta3", "simplex-n4", "path-i3-m1"} <= set(names)
    fresh = from_facets([[0, 1, 2, 3]])
    dup_names = set(corpus.standard_fixtures())
    dup_names.update(name for name, _, _ in corpus.duplication_instances())
    regular_names = set(corpus.standard_fixtures())
    regular_names.update(map(corpus.family_name, corpus.family_specs(max_i=2, max_m=8, max_n=5)))
    for name in names:
        got = [r for r in reports if r.inputs["complex"] == name and r.theorem_id != hodge_id]
        want = [
            check_boundary_eigenvalue(fresh, i, name, duplication_fixtures=name in dup_names)
            for i in range(fresh.dim)
        ]
        if name in regular_names:
            want += [check_regular_dual(fresh, i, name) for i in range(fresh.dim)]
        want.sort(key=lambda r: (r.theorem_id, r.input_hash()))
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want], name
    owner = {}
    for n, report in enumerate(reports):
        for c in _containers(report):
            assert owner.setdefault(id(c), n) == n, report.inputs


def test_a_user_document_equal_to_a_fixture_gets_its_own_checks():
    def fresh():
        return from_facets([[0, 1, 2, 3]])

    name = "user-delta3"
    walked = [
        r for r in run_suites(list(_WALKED), extra={name: fresh()}, random_count=0)
        if r.inputs.get("complex") == name
    ]
    k = fresh()
    direct = [check_hodge_and_duality(k, name)]
    direct += [
        check_bounds(k, i, kind, name)
        for i in range(k.dim)
        for kind in ("combinatorial", "normalized", "custom")
    ]
    # A user document is not a duplication fixture, unlike delta3 itself.
    direct += [check_boundary_eigenvalue(k, i, name, duplication_fixtures=False)
               for i in range(k.dim)]
    direct += [check_regular_dual(k, i, name) for i in range(k.dim)]
    direct.sort(key=lambda r: (r.theorem_id, r.input_hash()))
    assert json.dumps([r.to_dict() for r in walked]) == json.dumps(
        [r.to_dict() for r in direct]
    )


def test_a_family_check_on_a_given_complex_equals_one_on_a_generated_one():
    from hodgelap.suites import _family_checks

    fixtures = corpus.full_corpus(0, random_count=0)
    specs = _family_checks()
    assert sum(map(len, specs.values())) == 147
    for name, family in specs.items():
        k = fixtures[name]
        # Warm memo tables, as the walk leaves them, must not change the check.
        check_hodge_and_duality(k, name)
        for spec in family:
            fresh = check_family(spec, complex_=generate(spec))
            assert check_family(spec, complex_=k).to_dict() == fresh.to_dict(), spec


def test_one_pass_balance_matches_each_component_on_the_corpus(path_components, component_rows):
    from hodgelap.core import _component_balance, closure_of, signed_balance

    for name, k in corpus.full_corpus(seed=0).items():
        for i in range(0, k.dim):
            comps = path_components(k, i + 1)
            faces = k.faces(i + 1)
            rows = component_rows(k, i + 1)
            assert [[faces[j] for j in members] for members in rows] == comps, (name, i)
            got = _component_balance(k, i + 1)
            assert len(got) == len(comps), (name, i)
            for balanced, comp in zip(got, comps):
                assert balanced == signed_balance(closure_of(comp), i + 1, "parallel").balanced


def test_the_chromatic_number_is_searched_once_per_complex(monkeypatch):
    from hodgelap import core

    searches = []

    def counting(complex_, ceiling):
        searches.append(complex_)
        return core._chromatic_bounds(complex_, ceiling)

    k = from_facets([[0, 1, 2], [1, 2, 3], [3, 4]])
    monkeypatch.setattr(theorems, "_chromatic_bounds", counting)
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 100)
    reports = [check_boundary_eigenvalue(k, i, duplication_fixtures=False) for i in (0, 1)]
    assert len(searches) == 1
    assert [r.certificates["chromatic_number"] for r in reports] == [3, 3]
    # A spent budget is spent once too, and both reports carry its note.
    # The wheel over C_5 has clique number 3 and chromatic number 4.
    wheel = from_facets([[j, (j + 1) % 5, 5] for j in range(5)])
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 1)
    reports = [check_boundary_eigenvalue(wheel, i, duplication_fixtures=False) for i in (0, 1)]
    assert searches.count(wheel) == 1
    for r in reports:
        assert r.certificates["chromatic_number"] is None
        assert "chromatic condition not decided" in r.notes[0]


# The Groetzsch graph: the Mycielskian of C_5, triangle-free with chromatic
# number 4.
GROETZSCH = (
    [[j, (j + 1) % 5] for j in range(5)]
    + [[j, 5 + (j + d) % 5] for j in range(5) for d in (1, 4)]
    + [[5 + j, 10] for j in range(5)]
)
BOUNDS_NOTE = re.compile(r"chromatic condition not triggered \((\d+) <= chi <= (\d+), above dim\+1 = (\d+)\)")


def test_a_spent_chromatic_budget_leaves_a_note_not_an_abort(tmp_path, capsys, monkeypatch):
    from hodgelap import core
    from hodgelap.cli import cli_main

    # The Groetzsch graph leaves chi = i+2 = 2 open (clique bound 2, DSATUR
    # coloring 4), and the search needs 28 backtracks to rule out 3 colors;
    # every corpus complex needs at most 13, so under a budget of 20 only
    # the user complex runs out.
    path = tmp_path / "groetzsch.json"
    path.write_text(json.dumps({"facets": GROETZSCH, "name": "groetzsch"}))
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 20)
    code = cli_main(["verify", str(path), "--suite", "boundary", "--random-count", "0"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code in (0, 1)
    user = [r for r in records if r["inputs"]["complex"] == "user-groetzsch"]
    assert len(user) == 1
    assert user[0]["certificates"]["chromatic_number"] is None
    assert any("chromatic condition not decided" in note for note in user[0]["notes"])
    names = [check["name"] for check in user[0]["checks"]]
    assert "balance-iff-i+2-present" in names and "component-0/balance-iff-i+2" in names
    others = [r for r in records if r["inputs"]["complex"] != "user-groetzsch"]
    assert others and all(type(r["certificates"]["chromatic_number"]) is int for r in others)


def test_a_clique_past_dim_plus_1_decides_the_chromatic_condition_from_the_bounds(
    tmp_path, capsys, monkeypatch
):
    from hodgelap import core
    from hodgelap.cli import cli_main

    # G(40, 1/2) holds cliques larger than dim+1 = 2, so chi = i+2 = 2 is
    # ruled out: no search runs, even with no budget, and the note names
    # both bounds.
    rng = np.random.default_rng(0)
    edges = [[a, b] for a in range(40) for b in range(a + 1, 40) if rng.random() < 0.5]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"facets": edges, "name": "dense"}))
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 0)
    code = cli_main(["verify", str(path), "--suite", "boundary", "--random-count", "0"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code in (0, 1)
    dense = [r for r in records if r["inputs"]["complex"] == "user-dense"]
    assert len(dense) == 1
    assert dense[0]["certificates"]["chromatic_number"] is None
    notes = [note for note in dense[0]["notes"] if "chromatic" in note]
    assert len(notes) == 1
    lower, upper, ceiling = map(int, BOUNDS_NOTE.fullmatch(notes[0]).groups())
    assert ceiling == 2 < lower < upper
    names = [check["name"] for check in dense[0]["checks"]]
    assert "balance-iff-i+2-present" in names
    assert "chromatic-number-forces-i+2" not in names


def test_a_dense_complex_decides_the_chromatic_condition_without_a_search(monkeypatch):
    from hodgelap import core

    # 700 random triangles on 80 vertices: the greedy clique passes
    # dim+1 = 3, so the bounds rule out chi = i+2 at every i.  A search
    # would close the bounds, and under a budget of 0 its first backtrack
    # would leave the condition undecided.
    rng = np.random.default_rng(0)
    k = from_facets([t for t in rng.integers(0, 80, (700, 3)).tolist() if len(set(t)) == 3])
    calls = []

    def counting(complex_, ceiling):
        bounds = core._chromatic_bounds(complex_, ceiling)
        calls.append((ceiling, bounds))
        return bounds

    monkeypatch.setattr(theorems, "_chromatic_bounds", counting)
    monkeypatch.setattr(core, "_CHROMATIC_BUDGET", 0)
    start = time.perf_counter()
    reports = [check_boundary_eigenvalue(k, i, "dense") for i in (0, 1)]
    assert time.perf_counter() - start < 20
    [(ceiling, (lower, upper))] = calls
    assert ceiling == 3 < lower < upper
    for r in reports:
        assert r.certificates["chromatic_number"] is None
        assert f"chromatic condition not triggered ({lower} <= chi <= {upper}, above dim+1 = 3)" in r.notes
        assert not any("not decided" in note for note in r.notes)
        assert not any("chromatic" in it.name for it in r.items)


def _oracle_chromatic_number(n: int, edges: set[tuple[int, int]]) -> int:
    """Fewest colors of a proper coloring, by exhaustion over every coloring up to renaming."""

    def colorings(prefix: list[int]):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(max(prefix, default=-1) + 2):
            yield from colorings(prefix + [c])

    return min(max(c) + 1 for c in colorings([]) if all(c[a] != c[b] for a, b in edges))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    facets=st.integers(2, 4).flatmap(
        lambda top: st.lists(
            st.lists(st.integers(0, 6), min_size=1, max_size=top, unique=True),
            min_size=1,
            max_size=16,
        )
    )
)
# Where the greedy clique passes dim+1 and DSATUR's coloring is not optimal,
# no search runs: a graph of clique number and chromatic number 4 whose
# greedy clique is a triangle, and a 2-complex whose bounds are 4 and 5.
@example(facets=[[0, 1], [0, 2], [0, 4], [0, 6], [1, 2], [1, 5], [2, 4], [2, 6], [4, 6]])
@example(facets=[[2, 4, 5], [1, 4, 6], [1, 2, 6], [0, 2, 3], [1, 2, 5], [0, 5, 6]])
def test_chromatic_bounds_agree_with_an_exhaustive_oracle(facets):
    k = from_facets(facets)
    index = {v: j for j, v in enumerate(k.vertices())}
    chi = _oracle_chromatic_number(len(index), {(index[a], index[b]) for a, b in k.faces(1)})
    assert chromatic_number_1skel(k) == chi
    for i in range(k.dim):
        report = check_boundary_eigenvalue(k, i)
        bounds = [BOUNDS_NOTE.fullmatch(note) for note in report.notes]
        bounds = [tuple(map(int, m.groups())) for m in bounds if m]
        if report.certificates["chromatic_number"] is None:
            [(lower, upper, ceiling)] = bounds
            assert ceiling == k.dim + 1 < lower <= chi <= upper and chi != i + 2
        else:
            assert not bounds and report.certificates["chromatic_number"] == chi


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    facets=st.lists(
        st.lists(st.integers(0, 7), min_size=2, max_size=4, unique=True),
        min_size=1,
        max_size=10,
    )
)
def test_component_blocks_hold_i_plus_2_exactly_when_balanced(facets, component_rows):
    from hodgelap.core import _component_balance
    from hodgelap.operators import _gram

    k = from_facets(facets)
    for i in range(k.dim):
        lap = laplacian(k, i, "up", NORM)
        rows_gram = _gram(lap.up, "rows")
        balance = _component_balance(k, i + 1)
        got, present, _ = theorems._component_top_eigenvalue_present(k, i, 1e-7)
        assert [b for b, _ in got] == balance
        assert present == any(balance)
        for members, balanced, (_, held) in zip(component_rows(k, i + 1), balance, got):
            # The reference block: the rows of the dense symmetric L_i^up
            # that belong to the boundary faces of the members.
            in_block = np.zeros(lap.n, dtype=bool)
            in_block[lap.up.index[members]] = True
            faces = np.flatnonzero(in_block)
            reference = np.linalg.eigvalsh(lap.symmetric[np.ix_(faces, faces)])
            block = np.linalg.eigvalsh(rows_gram[np.ix_(members, members)])
            for values in (block, reference):
                assert spectra.Spectrum.from_values(values).contains(i + 2) == balanced
            assert held == balanced, (i, members)


def _loop_worst_residual(k, motif_vertices):
    """The worst eigenfunction residual of check_duplication, one candidate per loop pass."""
    from hodgelap.constructions import duplicate_motif
    from hodgelap.core import motif, permutation_parity

    sig = motif(k, motif_vertices)
    i = sig.link_dim
    dup, primed = duplicate_motif(k, sig)
    lap_cs = laplacian(sig.closed_star, i, "up", NORM)
    star_ifaces = sorted(f for f in sig.star if len(f) - 1 == i)
    sel = np.array([sig.closed_star.index(f) for f in star_ifaces], dtype=int)
    lam_restricted, u_restricted = np.linalg.eigh(lap_cs.symmetric[np.ix_(sel, sel)])
    weights_sel = lap_cs.weights[sel]
    l_dup = laplacian(dup, i, "up", NORM).matrix
    n_dup = dup.n_faces(i)
    worst_residual = 0.0
    entries = []
    for face in star_ifaces:
        image = [primed.get(v, v) for v in face]
        entries.append((dup.index(face), dup.index(tuple(sorted(image))), permutation_parity(image)))
    for col in range(len(lam_restricted)):
        f_vec = u_restricted[:, col] / np.sqrt(weights_sel)
        g = np.zeros(n_dup)
        for local, (row, image_row, parity) in enumerate(entries):
            g[row] += f_vec[local]
            g[image_row] -= parity * f_vec[local]
        residual = np.linalg.norm(l_dup @ g - lam_restricted[col] * g)
        worst_residual = max(worst_residual, residual / np.linalg.norm(g))
    return worst_residual


def test_duplication_residuals_equal_those_of_one_candidate_at_a_time():
    for name, k, verts in corpus.duplication_instances():
        report = check_duplication(k, verts, name)
        (item,) = [it for it in report.items if it.name == "antisymmetric-eigenfunction-residual"]
        assert item.observed == _loop_worst_residual(k, verts), name


def test_the_boundary_check_of_a_1089_vertex_torus_ends_within_a_minute():
    # The 33 x 33 triangulated torus: 1089 vertices, 3267 edges, 2178
    # triangles.  Duplicating each vertex in turn would take minutes.
    def v(a, b):
        return a % 33 * 33 + b % 33

    torus = from_facets(
        [
            face
            for a in range(33)
            for b in range(33)
            for face in ([v(a, b), v(a + 1, b), v(a + 1, b + 1)], [v(a, b), v(a, b + 1), v(a + 1, b + 1)])
        ]
    )
    start = time.perf_counter()
    reports = [check_boundary_eigenvalue(torus, i, "torus") for i in (0, 1)]
    assert time.perf_counter() - start < 60
    assert all(r.passed for r in reports)
    assert [r.certificates["chromatic_number"] for r in reports] == [3, 3]
    assert not any(it.name.startswith("vertex-") for r in reports for it in r.items)
