"""Abstract simplicial complexes and their combinatorial structure.

A face is a strictly increasing tuple of non-negative integer vertex ids;
the empty tuple is the empty face of dimension -1 and is always present, so
the augmented cochain complex has a one-dimensional degree -1 piece.  The
ascending vertex order is the canonical orientation of every face, and the
lexicographic order of the face tuples fixes the basis used by every matrix
in the package, which makes all outputs reproducible bit for bit.

The signed incidence of i-faces in (i+1)-faces lives in one place, the
boundary-index table of the coboundary ``D_i`` (:class:`CoboundaryMatrix`):
each (i+1)-face has exactly i+2 boundary faces, and the k-th one, which
omits the k-th vertex, carries the sign ``(-1)**k``.  Everything else that
needs incidence reads that table with numpy: the signed dual graphs at each
dimension (down flavor joins faces that intersect in a codimension-one face,
up flavor joins faces that lie in a common coface), face degrees and
regularity, and, in :mod:`hodgelap.operators`, the weighted coboundaries,
normalized weights and Gram matrices.  :func:`boundary_sign` gives one sign
from two face tuples.

Besides these, the module provides closure / star / link of a face set,
path-connectivity at a dimension, signed balance (which encodes both
orientability and the top-eigenvalue orientation condition), exact
chromatic number of the 1-skeleton, and motifs.

All objects are immutable after construction; operations may be called
concurrently on shared complexes (internal memo tables are populated with
single assignments only).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionError,
    IncidenceError,
    InvalidMotifError,
    MalformedFacetError,
    ResourceError,
    UnknownFaceError,
)

Face = tuple  # strictly increasing tuple of non-negative ints; () is the empty face


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


# Most faces that closure_of may build: 2**20, about 10^6 faces and a few
# hundred MB, about 19 times the largest bound that an input of the corpus, the
# tests or the benchmark reaches (55 578, for 10 000 random triangles).
_CLOSURE_BUDGET = 1 << 20


def _closure_bound(faces: list[Face]) -> int:
    """An upper bound on the number of faces in the closure of ``faces``.

    The closure has at most C(n, k) faces of k vertices for n vertices in
    all, and at most the sum of C(|f|, k) over the faces f given; the bound
    adds the smaller of the two over k, plus the empty face.
    """
    by_size: dict[int, int] = {}
    for f in faces:
        by_size[len(f)] = by_size.get(len(f), 0) + 1
    n = len(set().union(*faces))
    return 1 + sum(
        min(comb(n, k), sum(c * comb(size, k) for size, c in by_size.items()))
        for k in range(1, max(by_size, default=0) + 1)
    )


def closure_of(faces: Iterable[Face]) -> SimplicialComplex:
    """Inclusion closure of a face set (plus the empty face).

    When :func:`_closure_bound` passes ``_CLOSURE_BUDGET`` this raises
    :class:`ResourceError` before enumerating any face.
    """
    faces = [tuple(sorted(f)) for f in faces]
    # Each face f gives at most 2**len(f) faces, so the exact bound is
    # needed only when their sum passes the budget.
    if (
        sum(1 << len(f) for f in faces) > _CLOSURE_BUDGET
        and _closure_bound(faces) > _CLOSURE_BUDGET
    ):
        raise ResourceError(
            f"the closure would have more than {_CLOSURE_BUDGET} faces; "
            f"the largest face given has {max(map(len, faces))} vertices"
        )
    closed = {()}
    for f in faces:
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
# the boundary-index table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoboundaryMatrix:
    """A coboundary matrix, rows S_{i+1} and columns S_i, as a boundary-index table.

    Every (i+1)-face has exactly i+2 boundary faces, so row r has exactly
    i+2 stored entries: column ``index[r, k]`` -- the face that omits the
    k-th vertex of the row's face -- with value ``values[r, k]``.  For
    ``D_i`` the values are the boundary signs ``(-1)**k``; for the weighted
    ``B_i`` they are those signs times ``sqrt(w_{i+1}[r] / w_i[index[r, k]])``.
    The tables that :func:`coboundary_matrix` and
    :func:`hodgelap.operators.weighted_coboundary` memoize on a complex are
    shared by every caller, so their ``index`` and ``values`` are read-only.
    ``_memo`` holds what is derived from the values once, such as the
    read-only eigenvalues of its Gram sides (:func:`hodgelap.spectra.spectrum`).
    ``_pairs`` holds what is derived from ``index`` alone, the entry-pair
    layout of each Gram side (:func:`_entry_pairs`); every weighted table
    built from ``D_i`` shares the one dict of ``D_i``.
    """

    i: int
    index: np.ndarray  # (|S_{i+1}|, i+2) int64 column indices
    n_cols: int
    values: np.ndarray  # same shape as index
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), self.n_cols)

    @functools.cached_property
    def matrix(self):
        """The matrix in compressed sparse row form, built on first access.

        It is the only place the sparse-matrix library is imported; the
        package itself never reads it.
        """
        import scipy.sparse as sp

        rows = np.repeat(np.arange(len(self.index)), self.index.shape[1])
        return sp.csr_matrix(
            (self.values.ravel(), (rows, self.index.ravel())),
            shape=self.shape,
            dtype=self.values.dtype,
        )


def coboundary_matrix(complex_: SimplicialComplex, i: int) -> CoboundaryMatrix:
    """D_i under the canonical ascending-vertex orientation.

    ``i = -1`` gives the all-ones column over the vertices; ``i = dim``
    gives a table with zero rows.  ``D_i @ D_{i-1} == 0`` holds in exact
    integer arithmetic.  The table is memoized on the complex and read-only.
    """
    if not -1 <= i <= complex_.dim:
        raise DimensionError(f"coboundary index {i} out of range -1..{complex_.dim}")
    key = ("cobound", i)
    if key not in complex_._memo:
        cols = complex_._index[i]
        faces = complex_.faces(i + 1)
        width = i + 2
        index = np.fromiter(
            (cols[g[:k] + g[k + 1 :]] for g in faces for k in range(width)),
            dtype=np.int64,
            count=len(faces) * width,
        ).reshape(len(faces), width)
        values = np.ones(index.shape, dtype=np.int64)
        values[:, 1::2] = -1  # the face that omits vertex k has sign (-1)**k
        index.setflags(write=False)
        values.setflags(write=False)
        complex_._memo[key] = CoboundaryMatrix(i, index, len(cols), values)
    return complex_._memo[key]


def _entry_pairs(table: CoboundaryMatrix, of: str):
    """Every ordered pair of stored entries that share a row or a column.

    ``of="columns"`` pairs the entries within each row and returns their
    columns; ``of="rows"`` pairs the entries within each column and returns
    their rows.  Returns ``(left, right, products)``: the two members of
    each pair and the product of their values.  The pairs come grouped by
    the shared row or column in ascending order; each entry also pairs with
    itself.  The members and the entries they gather depend on ``index``
    alone, so they are built once per side and kept read-only in
    ``table._pairs``; only the products are computed per call.
    """
    layout = table._pairs.get(of)
    if layout is None:
        layout = table._pairs[of] = _pair_layout(table.index, of)
    left, right, gather_left, gather_right = layout
    data = table.values.ravel()
    return left, right, data[gather_left] * data[gather_right]


def _pair_layout(index: np.ndarray, of: str):
    """The members of every entry pair of one Gram side and the entries they gather."""
    entry = np.arange(index.size)
    rows = entry // index.shape[1]
    cols = index.ravel()
    if of == "columns":  # the entries are stored row by row already
        group, member = rows, cols
    else:
        entry = cols.argsort(kind="stable")
        group, member = cols[entry], rows[entry]
    # Entry p pairs with the whole run of entries in its group, which starts
    # at start[group[p]]; pair t of entry p is offset t - first[p] into it.
    counts = np.bincount(group)
    start = counts.cumsum() - counts
    reps = counts[group]
    first = reps.cumsum() - reps
    left = np.arange(len(group)).repeat(reps)
    right = (start[group] - first).repeat(reps) + np.arange(len(left))
    layout = (member[left], member[right], entry[left], entry[right])
    for array in layout:
        array.setflags(write=False)
    return layout


def _components(table: CoboundaryMatrix) -> np.ndarray:
    """Connected-component labels of the faces joined by one table ``D_j``.

    The graph has a node for every j-face, then one for every (j+1)-face,
    each dimension in canonical order, and one edge per stored entry, from
    a face to one of its boundary faces.  Every node is labelled with the
    smallest node of its component.

    Each round hooks the larger root of every edge whose ends still have
    different roots onto the smaller one, then jumps pointers until every
    node points at a root.  A round costs O(nnz) numpy work and merges at
    least one pair of trees in every component that still has several.
    Few rounds are needed in practice: at most 6 on random 2-complexes of
    3000 triangles, and 2 on long strips, paths and simplex skeleta.
    """
    rows, width = table.index.shape
    face = np.arange(table.n_cols, table.n_cols + rows).repeat(width)
    boundary = table.index.ravel()
    parent = np.arange(table.n_cols + rows)
    while True:
        a, b = parent[face], parent[boundary]
        apart = a != b
        if not apart.any():
            return parent
        face, boundary = face[apart], boundary[apart]
        a, b = a[apart], b[apart]
        # Every pointer goes to a smaller node, so no cycle can form.
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


def _degrees(complex_: SimplicialComplex, i: int, weights=None) -> np.ndarray:
    """Degree of every i-face: the sum of the weights of its (i+1)-cofaces.

    ``weights`` is the vector of the (i+1)-face weights in canonical order;
    without it each coface counts 1, giving the integer coface counts.  The
    cofaces of a face are added one at a time in canonical order, so every
    float sum is the same on any interpreter.
    """
    d = coboundary_matrix(complex_, i)
    if weights is not None:
        weights = np.asarray(weights, dtype=float).repeat(i + 2)
    return np.bincount(d.index.ravel(), weights=weights, minlength=d.n_cols)


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
    cl_st = closure_of(_star_facets(st))
    st_cl = set(star_of([f for f in cl.all_faces() if f]))
    lk = SimplicialComplex(f for f in cl_st.all_faces() if f not in st_cl)
    return cl, st, lk


def _star_facets(star: Iterable[Face]) -> list[Face]:
    """The faces of a star that no other face of the star contains.

    A star is closed upwards in its complex, so a face of it that lies in
    another one lies in one with a single vertex more.  These faces have
    the same closure as the whole star, and ``closure_of`` then enumerates
    the subsets of each facet once, not of every face in the star.
    """
    star = list(star)
    covered = {h for g in star for h in combinations(g, len(g) - 1)}
    return [g for g in star if g not in covered]


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
    # Two i-faces share at most one (i-1)-face and lie in at most one common
    # (i+1)-face, so each edge comes from exactly one pair of entries.
    if flavor == "down":
        a, b, sign = _entry_pairs(coboundary_matrix(complex_, i - 1), "rows")
    elif flavor == "up":
        a, b, sign = _entry_pairs(coboundary_matrix(complex_, i), "columns")
    else:
        raise ValueError(f"flavor must be 'down' or 'up', got {flavor!r}")
    keep = a < b
    a, b, sign = a[keep], b[keep], sign[keep]
    order = np.lexsort((b, a))
    edges = zip(a[order].tolist(), b[order].tolist(), sign[order].tolist())
    return DualGraph(tuple(complex_.faces_by_dim[i]), tuple(edges), flavor)


def path_connected_components(complex_: SimplicialComplex, i: int) -> list[list[Face]]:
    """Connected components of the down dual graph at dimension ``i``.

    Each component is a sorted list of i-faces, and the components are
    ordered by their first face.
    """
    if not 1 <= i <= complex_.dim:
        raise DimensionError(f"path connectivity needs 1 <= i <= dim, got {i}")
    # Two i-faces are joined in the down dual graph exactly when they reach
    # each other through shared (i-1)-faces in the graph of D_{i-1}.
    d = coboundary_matrix(complex_, i - 1)
    components: dict[int, list[Face]] = {}
    for face, label in zip(complex_.faces(i), _components(d)[d.n_cols :].tolist()):
        components.setdefault(label, []).append(face)
    # A label is the smallest (i-1)-face of its component, which is the
    # component's first i-face without its last vertex, so the labels order
    # the components by their first face.
    return [components[label] for label in sorted(components)]


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
    dual, x, parent, components = _colourings(complex_, q, -1 if mode == "antiparallel" else 1)
    for _, conflict in components:
        if conflict is not None:
            cycle = _bfs_cycle(parent, *conflict)
            return BalanceResult(False, None, tuple(dual.nodes[k] for k in cycle))
    assignment = {dual.nodes[k]: x[k] for k in range(len(x))}
    return BalanceResult(True, assignment, None)


def _colourings(complex_: SimplicialComplex, q: int, target: int):
    """BFS 2-colouring of the signed down dual graph at q, one component at a time.

    An edge of sign s between faces a and b asks for x[b] = target * s * x[a].
    Returns ``(dual, x, parent, components)``: ``components`` is a generator
    that colours the next component each time it is advanced and yields its
    face indices in BFS order with the first conflicting edge ``(v, w)``, or
    None when the component is balanced.  ``x`` and ``parent`` (the BFS
    tree) fill in as it goes.  Each start is the first q-face not yet
    reached, so the components come in the order of
    :func:`path_connected_components`.
    """
    dual = dual_graph(complex_, q, "down")
    n = len(dual.nodes)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, s in dual.edges:
        adj[a].append((b, s))
        adj[b].append((a, s))
    x = [0] * n
    parent: list[int | None] = [None] * n

    def components():
        for start in range(n):
            if x[start]:
                continue
            x[start] = 1
            members = [start]  # also the BFS queue
            conflict = None
            for v in members:
                for w, s in adj[v]:
                    want = target * s * x[v]
                    if x[w] == 0:
                        x[w] = want
                        parent[w] = v
                        members.append(w)
                    elif x[w] != want and conflict is None:
                        conflict = (v, w)
            yield members, conflict

    return dual, x, parent, components()


def _component_balance(complex_: SimplicialComplex, q: int) -> list[tuple[list[int], bool]]:
    """Every component of the signed down dual graph at q, with its parallel balance.

    One pass of :func:`_colourings` with target +1 that goes on past a
    conflict.  Returns ``(members, balanced)`` per component, in the order
    of :func:`path_connected_components`: the sorted indices of its q-faces,
    and whether it alone is balanced.  A component's edges are those of its
    own closure, so its balance is that of
    ``signed_balance(closure_of(component), q, "parallel")``.
    """
    _, _, _, components = _colourings(complex_, q, 1)
    return [(sorted(members), conflict is None) for members, conflict in components]


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
# regularity, motifs
# ---------------------------------------------------------------------------


def is_regular(
    complex_: SimplicialComplex,
    i: int,
    coface_weights: Mapping[Face, float] | Sequence[float] | None = None,
    rel_tol: float = 1e-9,
):
    """Whether all i-faces have the same degree.

    Degrees are sums of (i+1)-coface weights (all 1 when no weights are
    given), given as a map from each (i+1)-face to its weight or as the
    vector of those weights in canonical face order.  Returns ``(True, r)`` or ``(False, (face_a, face_b))`` with a
    witness pair of differing degrees.
    """
    if not 0 <= i < max(complex_.dim, 1):
        raise DimensionError(f"regularity dimension {i} out of range")
    faces = complex_.faces_by_dim.get(i, [])
    if not faces:
        return True, 0.0
    if isinstance(coface_weights, Mapping):
        coface_weights = [coface_weights[g] for g in complex_.faces(i + 1)]
    degs = _degrees(complex_, i, coface_weights).astype(float)
    r = float(degs[0])
    off = np.flatnonzero(np.abs(degs - r) > rel_tol * max(1.0, abs(r)))
    if off.size:
        return False, (faces[0], faces[off[0]])
    return True, r


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
