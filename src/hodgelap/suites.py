"""Verification suites: run the theorem checks over the fixture corpus.

Each suite yields :class:`CheckReport` objects; ``run_suites`` aggregates
them deterministically (sorted by theorem id, then input hash).  The corpus
suites ``hodge``, ``bounds`` and ``boundary`` take the (name, complex)
entries to check: ``run_suites`` builds the corpus once and hands each
complex to every selected corpus suite before dropping it, so the complex's
memo tables (coboundaries, ranks, Betti numbers, weights, pure parts) are
built once for all three.  The CLI ``verify`` subcommand is a thin wrapper
over :func:`run_suites`.
"""

from __future__ import annotations

import functools
from typing import Iterable

from . import corpus
from .core import SimplicialComplex
from .spectra import DEFAULT_VALUE_TOL
from .theorems import (
    CheckReport,
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

SUITES = (
    "families",
    "hodge",
    "bounds",
    "wedge",
    "join",
    "duplication",
    "boundary",
    "regular",
)
# Suites that check every entry of the corpus; run_suites walks it once for all.
_CORPUS_SUITES = ("hodge", "bounds", "boundary")


def suite_families(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    from .constructions import FamilySpec

    for spec in corpus.family_specs():
        if spec.family == "simplex":
            for i in range(-1, spec.n):
                yield check_family(FamilySpec("simplex", n=spec.n, i=i), tol)
        else:
            yield check_family(spec, tol)


def _corpus(seed: int, extra: dict[str, SimplicialComplex] | None, random_count: int):
    """Yield the corpus entries in order, dropping each from the corpus.

    Equal entries share one object, so a complex and its memo tables
    (coboundaries, ranks, pure parts) are freed once its last entry has been
    checked instead of living until the run ends.
    """
    fixtures = corpus.full_corpus(seed, random_count)
    if extra:
        fixtures.update(extra)
    for name in list(fixtures):
        yield name, fixtures.pop(name)


def suite_hodge(
    entries, seed: int = 0, tol: float = DEFAULT_VALUE_TOL, **_
) -> Iterable[CheckReport]:
    for name, k in entries:
        yield check_hodge_and_duality(k, name, tol=tol, seed=seed)


def suite_bounds(entries, seed: int = 0, **_) -> Iterable[CheckReport]:
    for name, k in entries:
        for i in range(0, k.dim):
            for kind in ("combinatorial", "normalized", "custom"):
                yield check_bounds(k, i, kind, name, seed=seed)


def suite_wedge(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k1, k2, f1, f2, i in corpus.wedge_instances():
        yield check_wedge(k1, k2, f1, f2, i, name, tol=tol)


def suite_join(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k1, k2 in corpus.join_instances():
        yield check_join(k1, k2, name, tol=tol)
    for name, k in corpus.cone_instances():
        yield check_cone(k, name, tol=tol)
    for name, g1, g2 in corpus.product_instances():
        yield check_graph_product(g1, g2, name, tol=tol)


def suite_duplication(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k, verts in corpus.duplication_instances():
        yield check_duplication(k, verts, name, tol=tol)


@functools.cache
def _duplication_fixture_names() -> frozenset[str]:
    """Names of the standard and duplication fixtures; they do not depend on the seed."""
    names = set(corpus.standard_fixtures())
    names.update(name for name, _, _ in corpus.duplication_instances())
    return frozenset(names)


def suite_boundary(entries, tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k in entries:
        # Small standard and duplication fixtures also get the duplication checks.
        run_dup = k.n_faces(0) <= 8 and name in _duplication_fixture_names()
        for i in range(0, k.dim):
            yield check_boundary_eigenvalue(
                k, i, name, tol=tol, duplication_fixtures=run_dup
            )


def suite_regular(
    seed: int = 0,
    extra: dict[str, SimplicialComplex] | None = None,
    tol: float = DEFAULT_VALUE_TOL,
    **_,
) -> Iterable[CheckReport]:
    fixtures = dict(corpus.standard_fixtures())
    fixtures.update(corpus.family_fixtures(max_i=2, max_m=8, max_n=5))
    if extra:
        fixtures.update(extra)
    for name, k in fixtures.items():
        for i in range(0, k.dim):
            yield check_regular_dual(k, i, name, tol=tol)


_SUITE_FUNCS = {
    "families": suite_families,
    "hodge": suite_hodge,
    "bounds": suite_bounds,
    "wedge": suite_wedge,
    "join": suite_join,
    "duplication": suite_duplication,
    "boundary": suite_boundary,
    "regular": suite_regular,
}


def run_suites(
    names: Iterable[str] = ("all",),
    seed: int = 0,
    extra: dict[str, SimplicialComplex] | None = None,
    tol: float = DEFAULT_VALUE_TOL,
    random_count: int = corpus.RANDOM_COUNT,
) -> list[CheckReport]:
    """Run the requested suites and return reports in deterministic order."""
    selected = list(SUITES) if "all" in names else [n for n in SUITES if n in set(names)]
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    reports: list[CheckReport] = []
    walked = [name for name in selected if name in _CORPUS_SUITES]
    if walked:
        # One walk: each corpus complex gets every walked suite's checks
        # before it is dropped, so its memo tables are built once.  Each
        # suite has its own theorem ids, so the interleaving does not
        # change the sorted order.
        for entry in _corpus(seed, extra, random_count):
            for name in walked:
                reports.extend(_SUITE_FUNCS[name]([entry], seed=seed, tol=tol))
    for name in selected:
        if name not in walked:
            reports.extend(_SUITE_FUNCS[name](seed=seed, extra=extra, tol=tol))
    reports.sort(key=lambda r: (r.theorem_id, r.input_hash()))
    return reports
