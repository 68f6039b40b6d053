"""The fixture corpus the verification suites quantify over.

Named small complexes with known structure, the full family grid
(i <= 3, m <= 12, n <= 8), a deterministic set of seeded random complexes
(<= 60 faces, dimension <= 3), and the construction instances (wedges,
joins, cones, duplications, graph products) the suites exercise.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .constructions import FamilySpec, generate
from .core import SimplicialComplex, from_facets

RANDOM_COUNT = 50
RANDOM_MAX_FACES = 60
RANDOM_MAX_DIM = 3


def standard_fixtures() -> dict[str, SimplicialComplex]:
    octahedron = [
        [a, b, c]
        for a in (0, 5)
        for b in (1, 4)
        for c in (2, 3)
    ]
    return {
        "k3-graph": from_facets([[0, 1], [0, 2], [1, 2]]),
        "p3-path": from_facets([[0, 1], [1, 2]]),
        "c4-cycle": from_facets([[0, 1], [1, 2], [2, 3], [0, 3]]),
        "c5-cycle": from_facets([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]),
        "k13-star": from_facets([[0, 1], [0, 2], [0, 3]]),
        "k23-bipartite": from_facets([[a, b] for a in (0, 1) for b in (2, 3, 4)]),
        "k4-graph": from_facets([[a, b] for a in range(4) for b in range(a + 1, 4)]),
        "filled-triangle": from_facets([[0, 1, 2]]),
        "hollow-triangle": from_facets([[0, 1], [1, 2], [0, 2]]),
        "delta3": from_facets([[0, 1, 2, 3]]),
        "boundary-delta3": from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
        "boundary-delta4": from_facets(
            [[a for a in range(5) if a != k] for k in range(5)]
        ),
        "octahedron": from_facets(octahedron),
        "two-triangles-shared-edge": from_facets([[0, 1, 2], [1, 2, 3]]),
        "two-triangles-shared-vertex": from_facets([[0, 1, 2], [2, 3, 4]]),
        "two-disjoint-triangles": from_facets([[0, 1, 2], [3, 4, 5]]),
        "two-disjoint-edges": from_facets([[0, 1], [2, 3]]),
        "triangle-with-tail": from_facets([[0, 1, 2], [2, 3]]),
        "moebius": generate(FamilySpec("moebius-circuit")),
        "two-tetra-shared-triangle": from_facets([[0, 1, 2, 3], [1, 2, 3, 4]]),
    }


def family_specs(max_i: int = 3, max_m: int = 12, max_n: int = 8) -> list[FamilySpec]:
    specs = [FamilySpec("simplex", n=n) for n in range(1, max_n + 1)]
    specs += [
        FamilySpec("circuit", i=i, m=m)
        for i in range(1, max_i + 1)
        for m in range(3, max_m + 1)
    ]
    specs += [
        FamilySpec("path", i=i, m=m)
        for i in range(1, max_i + 1)
        for m in range(1, max_m + 1)
    ]
    specs += [
        FamilySpec("star", i=i, m=m)
        for i in range(1, max_i + 1)
        for m in range(1, max_m + 1)
    ]
    specs.append(FamilySpec("moebius-circuit"))
    return specs


def family_name(spec: FamilySpec) -> str:
    """The corpus name of the family fixture generated from ``spec``."""
    if spec.family == "simplex":
        return f"simplex-n{spec.n}"
    if spec.family == "moebius-circuit":
        return "moebius-circuit"
    return f"{spec.family}-i{spec.i}-m{spec.m}"


def family_fixtures() -> dict[str, SimplicialComplex]:
    return {family_name(spec): generate(spec) for spec in family_specs()}


def random_complex(rng: np.random.Generator,
                   max_faces: int = RANDOM_MAX_FACES) -> SimplicialComplex:
    """A random small complex: greedy accumulation of random facets.

    Candidate facets of dimension <= ``RANDOM_MAX_DIM`` are drawn over a
    small vertex pool and accepted while the closure stays within the face
    budget.  The closure is counted as a set of face tuples; the complex is
    built once, from the accepted facets.
    """
    n_vertices = int(rng.integers(4, 9))
    pool = list(range(n_vertices))
    facets: list[list[int]] = [[v] for v in pool]
    faces = {(v,) for v in pool}
    for _ in range(int(rng.integers(3, 12))):
        size = int(rng.integers(2, RANDOM_MAX_DIM + 2))
        cand = sorted(rng.choice(pool, size=size, replace=False).tolist())
        trial = faces.union(*(combinations(cand, k) for k in range(1, size + 1)))
        if len(trial) <= max_faces:
            facets.append(cand)
            faces = trial
    return from_facets(facets)


def random_corpus(seed: int = 0, count: int = RANDOM_COUNT) -> dict[str, SimplicialComplex]:
    rng = np.random.default_rng(seed)
    return {f"random-{seed}-{k:02d}": random_complex(rng) for k in range(count)}


def wedge_instances():
    """(name, k1, k2, f1, f2, i) tuples for the wedge checks."""
    filled = from_facets([[0, 1, 2]])
    delta3 = from_facets([[0, 1, 2, 3]])
    twotri = from_facets([[0, 1, 2], [1, 2, 3]])
    star22 = generate(FamilySpec("star", i=2, m=2))
    return [
        ("tri-v-tri-i1", filled, filled, (0,), (0,), 1),
        ("tri-v-twotri-i1", filled, twotri, (1,), (1,), 1),
        ("delta3-v-delta3-i1", delta3, delta3, (0,), (0,), 1),
        ("delta3-v-delta3-i2", delta3, delta3, (0,), (0,), 2),
        ("delta3-e-delta3-i2", delta3, delta3, (0, 1), (0, 1), 2),
        ("tri-e-tri-i1", filled, filled, (0, 1), (0, 1), 1),
        ("tri-e-twotri-i1", filled, twotri, (0, 1), (1, 2), 1),
        ("star22-e-tri-i1", star22, filled, (0, 1), (0, 2), 1),
        ("delta3-t-delta3-i2", delta3, delta3, (0, 1, 2), (0, 1, 2), 2),
        ("twotri-v-tri-i1", twotri, filled, (0,), (2,), 1),
    ]


def join_instances():
    point = from_facets([[0]])
    pts2 = from_facets([[0], [1]])
    pts3 = from_facets([[0], [1], [2]])
    edge = from_facets([[0, 1]])
    p3 = from_facets([[0, 1], [1, 2]])
    hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    filled = from_facets([[0, 1, 2]])
    return [
        ("pt*pt", point, point),
        ("pt*3pts", point, pts3),
        ("edge*edge", edge, edge),
        ("edge*2pts", edge, pts2),
        ("edge*3pts", edge, pts3),
        ("p3*edge", p3, edge),
        ("hollow*pt", hollow, point),
        ("filled*pt", filled, point),
        ("hollow*2pts", hollow, pts2),
        ("p3*p3", p3, p3),
    ]


def cone_instances():
    return [
        ("cone-3pts", from_facets([[0], [1], [2]])),
        ("cone-c4", from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])),
        ("cone-hollow-triangle", from_facets([[0, 1], [1, 2], [0, 2]])),
        ("cone-filled-triangle", from_facets([[0, 1, 2]])),
        ("cone-p3", from_facets([[0, 1], [1, 2]])),
        ("cone-two-edges", from_facets([[0, 1], [2, 3]])),
    ]


def duplication_instances():
    """(name, complex, motif vertices); all single-vertex and larger motifs."""
    fx = standard_fixtures()
    return [
        ("dup-k3-v0", fx["k3-graph"], (0,)),
        ("dup-filled-v0", fx["filled-triangle"], (0,)),
        ("dup-c4-v0", fx["c4-cycle"], (0,)),
        ("dup-k13-leaf", fx["k13-star"], (1,)),
        ("dup-delta3-v0", fx["delta3"], (0,)),
        ("dup-twotri-v1", fx["two-triangles-shared-edge"], (1,)),
        ("dup-bdelta3-v0", fx["boundary-delta3"], (0,)),
        ("dup-k3-edge", fx["k3-graph"], (0, 1)),
        ("dup-delta3-edge", fx["delta3"], (0, 1)),
    ]


def product_instances():
    k2 = from_facets([[0, 1]])
    p3 = from_facets([[0, 1], [1, 2]])
    c4 = from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])
    k3 = from_facets([[0, 1], [0, 2], [1, 2]])
    return [
        ("k2xk2", k2, k2),
        ("k2xp3", k2, p3),
        ("k3xk2", k3, k2),
        ("p3xc4", p3, c4),
    ]


def full_corpus(seed: int = 0, random_count: int = RANDOM_COUNT) -> dict[str, SimplicialComplex]:
    """Families + named fixtures + constructions + seeded random complexes.

    Entries that are equal complexes share one object, the first built, so
    they share its memo tables (coboundaries, ranks, Betti numbers, weights).
    """
    from .constructions import cartesian_product, cone, duplicate_motif, join, wedge

    out: dict[str, SimplicialComplex] = {}
    out.update(standard_fixtures())
    out.update(family_fixtures())
    for name, k1, k2, f1, f2, _ in wedge_instances():
        out[f"wedge-{name}"] = wedge(k1, k2, f1, f2)[0]
    for name, k1, k2 in join_instances():
        out[f"join-{name}"] = join(k1, k2)[0]
    for name, k in cone_instances():
        out[name] = cone(k)[0]
    for name, k, verts in duplication_instances():
        out[name] = duplicate_motif(k, verts)[0]
    for name, g1, g2 in product_instances():
        out[f"product-{name}"] = cartesian_product(g1, g2)[0]
    out.update(random_corpus(seed, random_count))
    first: dict[SimplicialComplex, SimplicialComplex] = {}
    return {name: first.setdefault(k, k) for name, k in out.items()}
