"""Abstract simplicial complexes and their combinatorial structure.

A face is a strictly increasing tuple of non-negative integer vertex ids;
the empty tuple is the empty face of dimension -1 and is always present, so
the augmented cochain complex has a one-dimensional degree -1 piece.  The
ascending vertex order is the canonical orientation of every face, and the
lexicographic order of the face tuples fixes the basis used by every matrix
in the package, which makes all outputs reproducible bit for bit.

Besides the face lattice itself this module provides the combinatorial
machinery the spectral theory is phrased in: boundary signs, closure / star
/ link of a face set, the signed dual graphs at each dimension (down flavor
joins faces that intersect in a codimension-one face, up flavor joins faces
that lie in a common coface), path-connectivity at a dimension, signed
balance (which encodes both orientability and the top-eigenvalue
orientation condition), exact chromatic number of the 1-skeleton, face
regularity, and motifs.

All objects are immutable after construction; operations may be called
concurrently on shared complexes (internal memo tables are populated with
single assignments only).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionError,
    IncidenceError,
    InvalidMotifError,
    MalformedFacetError,
    ResourceError,
    UnknownFaceError,
)

Face = tuple  # strictly increasing tuple of non-negative ints; () is the empty face


def face_dim(face: Face) -> int:
    return len(face) - 1


def as_face(vertices: Iterable[int]) -> Face:
    """Normalize an iterable of vertex ids into a canonical face tuple."""
    vs = tuple(sorted(vertices))
    if len(set(vs)) != len(vs):
        raise MalformedFacetError(f"repeated vertex in face {list(vertices)!r}")
    if any((not isinstance(v, int)) or isinstance(v, bool) or v < 0 for v in vs):
        raise MalformedFacetError(f"vertex ids must be non-negative ints: {list(vertices)!r}")
    return vs


def permutation_parity(seq: Sequence[int]) -> int:
    """+1 / -1 parity of the permutation that sorts ``seq`` ascending."""
    order = sorted(range(len(seq)), key=lambda k: seq[k])
    seen = [False] * len(seq)
    sign = 1
    for start in range(len(seq)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class SimplicialComplex:
    """Downward-closed family of faces over integer vertices.

    Instances are built through :func:`from_facets` (or the other
    constructors in :mod:`hodgelap.constructions`); the constructor itself
    expects a face set that is already closed under inclusion.
    """

    __slots__ = ("faces_by_dim", "dim", "_index", "_cofaces", "_hash", "_memo")

    def __init__(self, faces: Iterable[Face]):
        by_dim: dict[int, list[Face]] = {}
        for f in faces:
            by_dim.setdefault(len(f) - 1, []).append(tuple(f))
        if -1 not in by_dim:
            by_dim[-1] = [()]
        self.dim = max(by_dim)
        self.faces_by_dim = {
            d: sorted(set(by_dim.get(d, []))) for d in range(-1, self.dim + 1)
        }
        self._index = {
            d: {f: i for i, f in enumerate(fs)} for d, fs in self.faces_by_dim.items()
        }
        self._cofaces: dict[Face, tuple[Face, ...]] | None = None
        self._hash: int | None = None
        self._memo: dict = {}

    # -- basic queries ----------------------------------------------------

    def faces(self, i: int) -> list[Face]:
        """Faces of dimension ``i`` in canonical (lexicographic) order."""
        return self.faces_by_dim.get(i, [])

    def n_faces(self, i: int) -> int:
        return len(self.faces_by_dim.get(i, []))

    def all_faces(self) -> list[Face]:
        out = []
        for d in range(-1, self.dim + 1):
            out.extend(self.faces_by_dim[d])
        return out

    def index(self, face: Face) -> int:
        """Row/column index of ``face`` within its dimension."""
        d = len(face) - 1
        try:
            return self._index[d][tuple(face)]
        except KeyError:
            raise UnknownFaceError(f"face {face!r} not in complex") from None

    def __contains__(self, face) -> bool:
        f = tuple(face)
        return f in self._index.get(len(f) - 1, {})

    def vertices(self) -> list[int]:
        return [f[0] for f in self.faces_by_dim.get(0, [])]

    def facets(self) -> list[Face]:
        """Inclusion-maximal faces (empty face only for the void complex)."""
        return [f for f in self.all_faces() if not self.cofaces(f)]

    def is_pure(self) -> bool:
        return all(len(f) - 1 == self.dim for f in self.facets())

    def cofaces(self, face: Face) -> tuple[Face, ...]:
        """Faces one dimension up that contain ``face``."""
        if self._cofaces is None:
            table: dict[Face, list[Face]] = {f: [] for f in self.all_faces()}
            for d in range(0, self.dim + 1):
                for g in self.faces_by_dim[d]:
                    for k in range(len(g)):
                        table[g[:k] + g[k + 1 :]].append(g)
            self._cofaces = {f: tuple(cs) for f, cs in table.items()}
        try:
            return self._cofaces[tuple(face)]
        except KeyError:
            raise UnknownFaceError(f"face {face!r} not in complex") from None

    # -- derived complexes -------------------------------------------------

    def skeleton(self, k: int) -> "SimplicialComplex":
        return SimplicialComplex(
            f for d in range(-1, min(k, self.dim) + 1) for f in self.faces_by_dim[d]
        )

    def pure_part(self, q: int) -> "SimplicialComplex":
        """Closure of the q-faces: the pure q-dimensional part of the complex.

        Memoized; a complex that is its own pure q-part returns itself.
        """
        key = ("pure", q)
        if key not in self._memo:
            part = closure_of(self.faces_by_dim.get(q, []))
            # The part is a subcomplex, so equal face counts mean equal
            # complexes.  That case is stored as None: a reference to self
            # would form a cycle, which only the cyclic collector frees.
            same = all(part.n_faces(d) == self.n_faces(d) for d in self.faces_by_dim)
            self._memo[key] = None if same else part
        return self._memo[key] or self

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.faces_by_dim == other.faces_by_dim

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(tuple(self.faces_by_dim[d]) for d in range(-1, self.dim + 1)))
        return self._hash

    def __repr__(self) -> str:
        sizes = ", ".join(f"S_{d}:{self.n_faces(d)}" for d in range(0, self.dim + 1))
        return f"SimplicialComplex(dim={self.dim}, {sizes})"


def closure_of(faces: Iterable[Face]) -> SimplicialComplex:
    """Inclusion closure of a face set (plus the empty face)."""
    closed = {()}
    for f in faces:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            closed.update(combinations(f, k))
    return SimplicialComplex(closed)


def from_facets(facets: Sequence[Iterable[int]]) -> SimplicialComplex:
    """Build the complex generated by ``facets`` (their inclusion closure).

    Non-maximal entries are harmless; re-extracting ``facets()`` from the
    result recovers the maximal faces only.
    """
    validated = []
    for facet in facets:
        vs = list(facet)
        if not vs:
            raise MalformedFacetError("facets must be non-empty vertex lists")
        validated.append(as_face(vs))
    return closure_of(validated)


def boundary_sign(coface: Face, face: Face) -> int:
    """Sign of ``face`` in the boundary of ``coface`` under canonical order.

    Equals ``(-1)**k`` where ``k`` is the position of the omitted vertex.
    """
    coface = tuple(coface)
    face = tuple(face)
    if len(coface) != len(face) + 1 or not set(face) < set(coface):
        raise IncidenceError(f"{face!r} is not a boundary face of {coface!r}")
    omitted = (set(coface) - set(face)).pop()
    return -1 if coface.index(omitted) % 2 else 1


# ---------------------------------------------------------------------------
# closure / star / link
# ---------------------------------------------------------------------------


def closure_star_link(
    complex_: SimplicialComplex, faces: Iterable[Face]
) -> tuple[SimplicialComplex, list[Face], SimplicialComplex]:
    """Closure, star and link of a face set.

    The closure is the smallest subcomplex containing the set; the star is
    every simplex of the complex having a (non-empty) face in the set; the
    link is the face set of ``cl st`` minus ``st cl``.  The empty face is
    ignored for star membership (every simplex contains it).
    """
    sel = []
    for f in faces:
        f = tuple(sorted(f))
        if f not in complex_:
            raise UnknownFaceError(f"face {f!r} not in complex")
        sel.append(f)
    nonempty = [f for f in sel if f]

    def star_of(fset: list[Face]) -> list[Face]:
        seeds = [set(f) for f in fset if f]
        out = []
        for d in range(0, complex_.dim + 1):
            for g in complex_.faces_by_dim[d]:
                gs = set(g)
                if any(s <= gs for s in seeds):
                    out.append(g)
        return out

    cl = closure_of(sel)
    st = star_of(nonempty)
    cl_st = closure_of(st)
    st_cl = set(star_of([f for f in cl.all_faces() if f]))
    lk = SimplicialComplex(f for f in cl_st.all_faces() if f not in st_cl)
    return cl, st, lk


# ---------------------------------------------------------------------------
# dual graphs, connectivity, balance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualGraph:
    """Signed graph on the i-faces of a complex.

    ``down`` flavor: nodes are adjacent when their intersection is a face of
    one dimension lower; the sign is the product of the boundary signs of
    the shared face in each node.  ``up`` flavor: nodes are adjacent when
    they lie in a common coface; the sign is the product of their boundary
    signs in that coface.
    """

    nodes: tuple[Face, ...]
    edges: tuple[tuple[int, int, int], ...]
    flavor: str

    def to_complex(self) -> SimplicialComplex:
        """The underlying unsigned graph as a 1-dimensional complex."""
        faces = [(j,) for j in range(len(self.nodes))]
        faces += [tuple(sorted((a, b))) for a, b, _ in self.edges]
        return closure_of(faces)


def dual_graph(complex_: SimplicialComplex, i: int, flavor: str) -> DualGraph:
    if not 0 <= i <= complex_.dim:
        raise DimensionError(f"dual graph dimension {i} out of range 0..{complex_.dim}")
    nodes = complex_.faces_by_dim[i]
    idx = complex_._index[i]
    edges = []
    if flavor == "down":
        by_subface: dict[Face, list[Face]] = {}
        for f in nodes:
            for k in range(len(f)):
                by_subface.setdefault(f[:k] + f[k + 1 :], []).append(f)
        for e, shared in sorted(by_subface.items()):
            for fa, fb in combinations(shared, 2):
                sign = boundary_sign(fa, e) * boundary_sign(fb, e)
                edges.append((idx[fa], idx[fb], sign))
    elif flavor == "up":
        for g in complex_.faces_by_dim.get(i + 1, []):
            subs = [g[:k] + g[k + 1 :] for k in range(len(g))]
            signs = [(-1 if k % 2 else 1) for k in range(len(g))]
            for (fa, sa), (fb, sb) in combinations(zip(subs, signs), 2):
                edges.append((idx[fa], idx[fb], sa * sb))
    else:
        raise ValueError(f"flavor must be 'down' or 'up', got {flavor!r}")
    edges = sorted((min(a, b), max(a, b), s) for a, b, s in edges)
    return DualGraph(tuple(nodes), tuple(edges), flavor)


def path_connected_components(complex_: SimplicialComplex, i: int) -> list[list[Face]]:
    """Connected components of the down dual graph at dimension ``i``."""
    if not 1 <= i <= complex_.dim:
        raise DimensionError(f"path connectivity needs 1 <= i <= dim, got {i}")
    dual = dual_graph(complex_, i, "down")
    n = len(dual.nodes)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b, _ in dual.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(sorted(dual.nodes[v] for v in comp))
    return sorted(components, key=lambda c: c[0])


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    assignment: Mapping[Face, int] | None
    violating_cycle: tuple[Face, ...] | None


def signed_balance(complex_: SimplicialComplex, q: int, mode: str) -> BalanceResult:
    """Solvability of ``x_F * x_F' * sign(edge) == target`` on the q-faces.

    ``antiparallel`` mode (target -1) is orientability of the pure
    q-dimensional part: an orientation exists in which every shared
    (q-1)-face receives opposite induced orientations.  ``parallel`` mode
    (target +1) is the orientation condition under which the top eigenvalue
    q+1 of the (q-1)-up operator is attained.  Solved by BFS 2-coloring of
    the signed down dual graph, one component at a time; on failure the
    fundamental cycle that witnesses the conflict is returned.
    """
    if mode not in ("antiparallel", "parallel"):
        raise ValueError(f"mode must be 'antiparallel' or 'parallel', got {mode!r}")
    target = -1 if mode == "antiparallel" else 1
    dual = dual_graph(complex_, q, "down")
    n = len(dual.nodes)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, s in dual.edges:
        adj[a].append((b, s))
        adj[b].append((a, s))
    x = [0] * n
    parent: list[int | None] = [None] * n
    for start in range(n):
        if x[start]:
            continue
        x[start] = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, s in adj[v]:
                want = target * s * x[v]
                if x[w] == 0:
                    x[w] = want
                    parent[w] = v
                    queue.append(w)
                elif x[w] != want:
                    cycle = _bfs_cycle(parent, v, w)
                    return BalanceResult(
                        False, None, tuple(dual.nodes[k] for k in cycle)
                    )
    assignment = {dual.nodes[k]: x[k] for k in range(n)}
    return BalanceResult(True, assignment, None)


def _bfs_cycle(parent, v, w):
    path_v = [v]
    while parent[path_v[-1]] is not None:
        path_v.append(parent[path_v[-1]])
    anc = set(path_v)
    path_w = [w]
    while path_w[-1] not in anc:
        path_w.append(parent[path_w[-1]])
    meet = path_w[-1]
    return path_v[: path_v.index(meet) + 1] + path_w[-2::-1]


# ---------------------------------------------------------------------------
# chromatic number (exact)
# ---------------------------------------------------------------------------


def chromatic_number_1skel(complex_: SimplicialComplex, max_steps: int = 5_000_000) -> int:
    """Exact chromatic number of the 1-skeleton.

    Backtracking over k-colorings between a greedy-clique lower bound and a
    greedy-coloring upper bound, with first-new-color symmetry breaking.
    ``max_steps`` bounds the number of search nodes; exceeding it raises
    :class:`ResourceError` rather than returning an approximation.
    """
    verts = complex_.vertices()
    if not verts:
        raise DimensionError("chromatic number needs at least one vertex")
    pos = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    adj = [set() for _ in range(n)]
    for a, b in complex_.faces_by_dim.get(1, []):
        adj[pos[a]].add(pos[b])
        adj[pos[b]].add(pos[a])

    order = sorted(range(n), key=lambda v: -len(adj[v]))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    lower = max(1, len(clique))

    greedy = {}
    for v in order:
        used = {greedy[u] for u in adj[v] if u in greedy}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    upper = max(greedy.values()) + 1 if greedy else 1

    budget = [max_steps]

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def pick() -> int:
            best, best_key = -1, (-1, -1)
            for v in range(n):
                if colors[v] >= 0:
                    continue
                sat = len({colors[u] for u in adj[v] if colors[u] >= 0})
                key = (sat, len(adj[v]))
                if key > best_key:
                    best, best_key = v, key
            return best

        def extend(used: int) -> bool:
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceError("chromatic number search budget exceeded")
            v = pick()
            if v < 0:
                return True
            forbidden = {colors[u] for u in adj[v] if colors[u] >= 0}
            for c in range(min(k, used + 1)):
                if c in forbidden:
                    continue
                colors[v] = c
                if extend(max(used, c + 1)):
                    return True
                colors[v] = -1
            return False

        return extend(0)

    for k in range(lower, upper):
        if colorable(k):
            return k
    return upper


# ---------------------------------------------------------------------------
# regularity, centers, motifs
# ---------------------------------------------------------------------------


def is_regular(
    complex_: SimplicialComplex,
    i: int,
    coface_weights: Mapping[Face, float] | None = None,
    rel_tol: float = 1e-9,
):
    """Whether all i-faces have the same degree.

    Degrees are sums of (i+1)-coface weights (all 1 when no weights are
    given).  Returns ``(True, r)`` or ``(False, (face_a, face_b))`` with a
    witness pair of differing degrees.
    """
    if not 0 <= i < max(complex_.dim, 1):
        raise DimensionError(f"regularity dimension {i} out of range")
    faces = complex_.faces_by_dim.get(i, [])
    degs = []
    for f in faces:
        cofs = complex_.cofaces(f)
        if coface_weights is None:
            degs.append(float(len(cofs)))
        else:
            degs.append(float(sum(coface_weights[g] for g in cofs)))
    if not faces:
        return True, 0.0
    r = degs[0]
    scale = max(1.0, abs(r))
    for f, d in zip(faces, degs):
        if abs(d - r) > rel_tol * scale:
            return False, (faces[0], f)
    return True, r


def chain_centers(faces: Iterable[Face]) -> Face:
    """Vertices common to every face of a chain (the centers of a circuit)."""
    faces = [set(f) for f in faces]
    if not faces:
        return ()
    common = set.intersection(*faces)
    return tuple(sorted(common))


@dataclass(frozen=True)
class Motif:
    """Induced subcomplex on a vertex set, together with its link.

    Validity per the duplication construction: the subcomplex contains every
    face of the ambient complex whose faces all lie in it (guaranteed here
    by taking the induced subcomplex), and the link dimension identifies the
    operator order the motif interacts with.
    """

    vertices: tuple[int, ...]
    induced: SimplicialComplex
    link: SimplicialComplex
    star: tuple[Face, ...] = field(repr=False, default=())

    @property
    def link_dim(self) -> int:
        return self.link.dim


def motif(complex_: SimplicialComplex, vertices: Iterable[int]) -> Motif:
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise InvalidMotifError("a motif needs at least one vertex")
    for v in vs:
        if (v,) not in complex_:
            raise UnknownFaceError(f"vertex {v} not in complex")
    vset = set(vs)
    induced_faces = [
        f
        for d in range(-1, complex_.dim + 1)
        for f in complex_.faces_by_dim[d]
        if set(f) <= vset
    ]
    induced = SimplicialComplex(induced_faces)
    _, st, lk = closure_star_link(complex_, [f for f in induced_faces if f])
    return Motif(vs, induced, lk, tuple(st))
