"""Generators for the named families and the complex-building operations.

Families with closed-form reference spectra:

* ``simplex`` -- full complex on n vertices; the i-up spectrum of the
  normalized operator is n/(n-i-1) with multiplicity C(n-1, i+1) plus
  zeros with multiplicity C(n-1, i).
* ``circuit`` -- orientable i-circuit of length m, realized with an
  (i-1)-vertex center and an m-vertex ring: the faces are
  {centers} + {u_j, u_j+1 mod m}, so consecutive faces share an
  (i-1)-face and non-consecutive ones only the center.  The i-down
  spectrum is {i - cos(2 pi j / m)}.
* ``path`` -- same construction without the wraparound; the i-down
  spectrum is {i + cos(pi k / m) : k = 0..m-1}.  (Stated equivalently as
  i - cos(pi k / m) over k = 1..m: the trace, which must equal i*m + 1,
  pins the k range; the length-1 path is a single simplex with down
  spectrum {i+1}.)
* ``star`` -- m faces through one common (i-1)-face; the i-down spectrum
  is i with multiplicity m-1 and i+1 once (no zeros).
* ``moebius-circuit`` -- the 5-vertex Moebius band (triangles
  {j, j+1, j+2 mod 5}), the canonical non-orientable 2-circuit of odd
  length 5; its 2-down spectrum is {2 + cos(2 pi j / 5)}.

For non-orientable circuits of length m the shifted-basis argument gives
eigenvalues i - cos((2j+1) pi / m): for odd m this equals the
i + cos(2 pi j / m) form, and it is what the Moebius fixture realizes.
Graph cycles (i = 1) are always orientable, so no non-orientable family
exists there.

Building operations: combinatorial k-wedge (gluing along one identified
k-face), join, cone, motif duplication, and the direct product of graphs.
Each returns the relabeling it performed alongside the complex, so tests
can trace faces through the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, cos, pi
from typing import Mapping

from .core import (
    Face,
    Motif,
    SimplicialComplex,
    _refuse_past_budget,
    closure_of,
    from_facets,
    motif as make_motif,
)
from .errors import (
    DimensionError,
    FamilyParameterError,
    UnknownFaceError,
)
from .spectra import Spectrum

FAMILIES = ("simplex", "circuit", "path", "star", "moebius-circuit")


@dataclass(frozen=True)
class FamilySpec:
    """A named family instance: simplex(n) or an (i, m)-parameterized chain.

    For ``simplex`` the optional ``i`` selects the operator order that
    :func:`reference_spectrum` reports (the complex itself only needs n).
    """

    family: str
    n: int | None = None
    i: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyParameterError(f"unknown family {self.family!r}")
        if self.family == "simplex":
            if self.n is None or self.n < 1:
                raise FamilyParameterError("simplex needs n >= 1")
        elif self.family == "moebius-circuit":
            if self.i not in (None, 2) or self.m not in (None, 5):
                if self.i == 1:
                    raise FamilyParameterError(
                        "every graph cycle is orientable; there is no "
                        "non-orientable circuit at i = 1"
                    )
                raise FamilyParameterError(
                    "the moebius-circuit fixture is fixed at i = 2, m = 5"
                )
        else:
            if self.i is None or self.i < 1:
                raise FamilyParameterError(f"{self.family} needs i >= 1")
            if self.m is None:
                raise FamilyParameterError(f"{self.family} needs a length m")
            if self.family == "circuit" and self.m < 3:
                raise FamilyParameterError("circuit needs m >= 3")
            if self.family in ("path", "star") and self.m < 1:
                raise FamilyParameterError(f"{self.family} needs m >= 1")


def generate(spec: FamilySpec) -> SimplicialComplex:
    """Build the complex of a family instance.

    A closure past the budget is refused before any facet is listed, from
    its face count, the empty face included: 2^n for a simplex, and for
    each subset of the i-1 centers a face of the ring, path or star graph,
    so 2^(i-1) (2m+1) for a circuit and 2^(i-1) (2m+2) for a path or star.
    """
    if spec.family == "simplex":
        _refuse_past_budget(spec.n, 1, spec.n)
        return from_facets([list(range(spec.n))])
    if spec.family == "moebius-circuit":
        return from_facets([[j % 5, (j + 1) % 5, (j + 2) % 5] for j in range(5)])
    i, m = spec.i, spec.m
    _refuse_past_budget(i + 1, 2 * m + (1 if spec.family == "circuit" else 2), i - 1)
    centers = list(range(i - 1))
    if spec.family == "circuit":
        ring = [i - 1 + k for k in range(m)]
        faces = [centers + [ring[j], ring[(j + 1) % m]] for j in range(m)]
    elif spec.family == "path":
        ring = [i - 1 + k for k in range(m + 1)]
        faces = [centers + [ring[j], ring[j + 1]] for j in range(m)]
    else:  # star: common (i-1)-face plus m apexes
        shared = list(range(i))
        faces = [shared + [i + k] for k in range(m)]
    return from_facets(faces)


def reference_spectrum(spec: FamilySpec) -> Spectrum:
    """Closed-form spectrum of a family instance.

    For circuit/path/star/moebius this is the i-down spectrum at the
    family's own i; for the simplex it is the i-up spectrum at ``spec.i``.
    """
    if spec.family == "simplex":
        n, i = spec.n, spec.i
        if i is None or not -1 <= i <= n - 1:
            raise FamilyParameterError(f"simplex spectrum needs -1 <= i <= {n - 1}")
        mult = comb(n - 1, i + 1)
        zeros = comb(n - 1, i + 1 - 1) if i >= 0 else 0
        values = [0.0] * zeros
        if mult:
            values += [n / (n - i - 1)] * mult
        return Spectrum.from_values(values)
    if spec.family == "moebius-circuit":
        return nonorientable_circuit_spectrum(2, 5)
    i, m = spec.i, spec.m
    if spec.family == "circuit":
        values = [i - cos(2 * pi * j / m) for j in range(m)]
    elif spec.family == "path":
        values = [i + cos(pi * k / m) for k in range(m)]
    else:  # star
        values = [float(i)] * (m - 1) + [float(i + 1)]
    return Spectrum.from_values(values)


def nonorientable_circuit_spectrum(i: int, m: int) -> Spectrum:
    """i-down spectrum of a non-orientable i-circuit of length m.

    The twisted shift basis gives i - cos((2j+1) pi / m); for odd m this is
    the multiset {i + cos(2 pi j / m)}.
    """
    return Spectrum.from_values([i - cos((2 * j + 1) * pi / m) for j in range(m)])


# ---------------------------------------------------------------------------
# wedge / join / cone
# ---------------------------------------------------------------------------


def wedge(
    k1: SimplicialComplex, k2: SimplicialComplex, f1: Face, f2: Face
) -> tuple[SimplicialComplex, dict[int, int]]:
    """Combinatorial k-wedge: disjoint union with ``f2`` identified to ``f1``.

    Vertices of ``f2`` map onto those of ``f1`` in ascending order; the
    remaining vertices of ``k2`` get fresh labels above ``k1``.  Returns the
    wedge and the full old-to-new vertex map for ``k2``.
    """
    f1, f2 = tuple(sorted(f1)), tuple(sorted(f2))
    if len(f1) != len(f2):
        raise DimensionError("wedge faces must share a dimension")
    if f1 not in k1 or f2 not in k2:
        raise UnknownFaceError("wedge faces must belong to their complexes")
    fresh = max(k1.vertices(), default=-1) + 1
    relabel = dict(zip(f2, f1))
    for v in k2.vertices():
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1
    facets = k1.facets() + [tuple(map(relabel.__getitem__, f)) for f in k2.facets()]
    return closure_of(facets), relabel


def join(
    k1: SimplicialComplex, k2: SimplicialComplex
) -> tuple[SimplicialComplex, dict[int, int]]:
    """Join: every union of a face of ``k1`` with a shifted face of ``k2``.

    ``k2`` is relabeled above the largest vertex of ``k1`` (the classical
    cardinality shift, made collision-safe for non-contiguous labels).  The
    facets of the join are the unions of a facet of each.
    """
    shift = max(k1.vertices(), default=-1) + 1
    relabel = {v: v + shift for v in k2.vertices()}
    shifted = [tuple(map(relabel.__getitem__, f)) for f in k2.facets()]
    return closure_of(fa + fb for fa in k1.facets() for fb in shifted), relabel


def cone(k: SimplicialComplex) -> tuple[SimplicialComplex, int]:
    """Cone: join with a single fresh apex vertex (labels of ``k`` kept)."""
    apex = max(k.vertices(), default=-1) + 1
    return closure_of(f + (apex,) for f in k.facets()), apex


def product_weight_map(
    joined: SimplicialComplex,
    shift: int,
    w1: Mapping[Face, float],
    w2: Mapping[Face, float],
) -> dict[Face, float]:
    """Product weights on a join: w(F1 * F2) = w1(F1) * w2(F2).

    A face of the join splits at ``shift``: its vertices below it form F1,
    and the others, shifted back down by ``shift``, form F2.
    """
    out = {}
    for f in joined.all_faces():
        a = tuple(v for v in f if v < shift)
        b = tuple(v - shift for v in f if v >= shift)
        out[f] = w1[a] * w2[b]
    return out


# ---------------------------------------------------------------------------
# motif duplication
# ---------------------------------------------------------------------------


def duplicate_motif(
    k: SimplicialComplex, sigma: Motif | tuple[int, ...]
) -> tuple[SimplicialComplex, dict[int, int]]:
    """Duplicate a motif: add a primed copy glued through the motif's link.

    For every face of ``k`` that holds a motif vertex, the face with its
    motif vertices primed is added; the rest of such a face lies in the
    motif's link, so the copy is glued through the link.  The result is
    the closure of the facets of ``k`` and the primed copies of the facets
    that hold a motif vertex, which enumerates the primed faces only once.
    Every face that holds a primed vertex is the primed copy of a face of
    the motif's star, so the closed stars of the motif and of its primed
    copy are isomorphic in the result.  A :class:`Motif` is read in ``k``
    by its vertices, whatever complex it was taken from.  Returns the
    duplicated complex and the map from motif vertices to their primed
    labels.
    """
    sig = make_motif(k, sigma.vertices if isinstance(sigma, Motif) else sigma)
    fresh = max(k.vertices()) + 1
    primed = {v: fresh + rank for rank, v in enumerate(sig.vertices)}
    facets = k.facets()
    copies = [tuple(primed.get(v, v) for v in f) for f in facets if not primed.keys().isdisjoint(f)]
    return closure_of(facets + copies), primed


# ---------------------------------------------------------------------------
# direct product of graphs
# ---------------------------------------------------------------------------


def cartesian_product(
    g1: SimplicialComplex, g2: SimplicialComplex
) -> tuple[SimplicialComplex, dict[tuple[int, int], int]]:
    """Direct product of two graphs, as a 1-dimensional complex.

    Vertices are the pairs (u, v); (u, v) ~ (u', v) when u ~ u' and
    (u, v) ~ (u, v') when v ~ v'.  Returns the product and the pair-to-id
    map (ids follow the lexicographic pair order).
    """
    if g1.dim > 1 or g2.dim > 1:
        raise DimensionError("graph product needs 1-dimensional inputs")
    v1, v2 = g1.vertices(), g2.vertices()
    pair_id = {
        (u, v): k for k, (u, v) in enumerate((u, v) for u in v1 for v in v2)
    }
    faces = [(k,) for k in pair_id.values()]
    for (a, b) in g1.faces(1):
        for v in v2:
            faces.append(tuple(sorted((pair_id[(a, v)], pair_id[(b, v)]))))
    for (a, b) in g2.faces(1):
        for u in v1:
            faces.append(tuple(sorted((pair_id[(u, a)], pair_id[(u, b)]))))
    return closure_of(faces), pair_id


def product_tensor_weight_map(
    product: SimplicialComplex,
    pair_id: Mapping[tuple[int, int], int],
    g1: SimplicialComplex,
    g2: SimplicialComplex,
    w1: Mapping[Face, float],
    w2: Mapping[Face, float],
) -> dict[Face, float]:
    """Tensor-product weights on a graph product.

    Vertex (u, v) gets w1(u) * w2(v); an edge in the first direction gets
    w1(uu') * w2(v) / 2, one in the second w1(u) * w2(vv') / 2.  The two
    directions share the weight equally, so with normalized factor weights
    the resulting operator is again normalized.
    """
    id_pair = {k: uv for uv, k in pair_id.items()}
    out: dict[Face, float] = {}
    for (k,) in product.faces(0):
        u, v = id_pair[k]
        out[(k,)] = w1[(u,)] * w2[(v,)]
    for (a, b) in product.faces(1):
        (u1, v1), (u2, v2) = id_pair[a], id_pair[b]
        if v1 == v2:
            out[(a, b)] = 0.5 * w1[tuple(sorted((u1, u2)))] * w2[(v1,)]
        else:
            out[(a, b)] = 0.5 * w1[(u1,)] * w2[tuple(sorted((v1, v2)))]
    # Added left to right in canonical order: the builtin sum() compensates
    # float rounding from Python 3.12 on, which would change the last bits.
    total = 0.0
    for vertex in product.faces(0):
        total += out[vertex]
    out[()] = total
    return out
