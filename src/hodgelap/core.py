"""Abstract simplicial complexes and their combinatorial structure.

A face is a strictly increasing tuple of non-negative integer vertex ids;
the empty tuple is the empty face of dimension -1 and is always present, so
the augmented cochain complex has a one-dimensional degree -1 piece.  The
ascending vertex order is the canonical orientation of every face, and the
lexicographic order of the face tuples fixes the basis used by every matrix
in the package, which makes all outputs reproducible bit for bit.

A complex stores its faces as arrays, one per dimension.  The vertex labels
are sorted and relabelled to ids 0..n-1 by rank, so every order is kept and
labels of any size, even past int64, take the same path.  The d-faces are
one read-only (n_d, d+1) int64 array of ascending vertex ids, rows in
lexicographic order, and beside it their face keys: the key of a face is
the row of its prefix (the face without its last vertex) one dimension
down, times n, plus its last vertex.  Keys sort like the rows, so they are
strictly increasing, and stay below n_{d-1} * n, so they cannot overflow.

There is one way from faces to a complex, :func:`from_facets`: it checks
the faces, refuses a closure past the closure budget and builds it.
:func:`closure_of` is the same with empty faces dropped, and every
construction of :mod:`hodgelap.constructions` hands it generated facets.
A closure builds each dimension with one ``np.unique`` over the keys of
all subsets of that size.  A closure of at most ``_SMALL_CLOSURE``
subsets, the size of nearly every complex of the corpus, is enumerated
with Python sets instead and ranked face by face into the same arrays,
since numpy's per-call cost would outweigh the work.  Other complexes --
pure parts, closures, links and closed stars inside a complex -- are cut
from its arrays by row selection.  The table of ``D_i`` is one
``searchsorted`` of keys read off the table of ``D_{i-1}``.  Face tuples
are decoded one dimension at a time, only for the callers that ask for
them (:meth:`SimplicialComplex.faces`); face lookups walk the keys.

The signed incidence of i-faces in (i+1)-faces lives in one place, the
boundary-index table of the coboundary ``D_i`` (:class:`CoboundaryMatrix`):
each (i+1)-face has exactly i+2 boundary faces, and the k-th one, which
omits the k-th vertex, carries the sign ``(-1)**k``.  Everything else that
needs incidence reads that table with numpy: the signed dual graphs at each
dimension (down flavor joins faces that intersect in a codimension-one face,
up flavor joins faces that lie in a common coface), face degrees, facets,
cofaces, stars and regularity, and, in :mod:`hodgelap.operators`, the
weighted coboundaries, normalized weights and Gram matrices.
:func:`boundary_sign` gives one sign from two face tuples.

Besides these, the module provides path components, signed balance
(which encodes both orientability and the top-eigenvalue orientation
condition), the chromatic number of the 1-skeleton, and motifs with
their stars, closed stars and links.  The chromatic number has one
colorer, a DSATUR branch and bound (:func:`_chromatic_bounds`): its first
descent is the greedy coloring, an upper bound, and backtracking closes
the gap to the lower bound, the larger of a greedy clique and dim+1, only
for a caller that asks.  Path components and balance come
from one labeller, :func:`_labels`, on the graph of the table ``D_{q-1}``:
a node per q-face and per (q-1)-face, an edge per stored entry.
Components are labelled on it, and balance on its double cover signed by
the entries, where a component is balanced exactly when no face meets its
own negative copy.  Neither builds the down dual graph (:func:`dual_graph`).

All objects are immutable after construction; operations may be called
concurrently on shared complexes (internal memo tables are populated with
single assignments only).
"""

from __future__ import annotations

import functools
import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress
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


def permutation_parity(seq: Sequence[int]) -> int:
    """+1 / -1 parity of the permutation that sorts ``seq`` ascending."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


# The dimension -1 layer: one empty face, whose key is 0.
_EMPTY_LAYER = np.zeros((1, 0), dtype=np.int64)
_EMPTY_KEYS = np.zeros(1, dtype=np.int64)
_INT64 = (-(1 << 63), 1 << 63)


class SimplicialComplex:
    """Downward-closed family of faces over integer vertices.

    Instances are built through :func:`from_facets` or :func:`closure_of`,
    which every construction of :mod:`hodgelap.constructions` goes through,
    or cut from another complex.  The constructor takes a face lattice that
    is already valid: the sorted vertex labels and, per dimension from -1,
    the face array and the face keys described in the module docstring.
    It makes the arrays read-only and stores them.
    """

    __slots__ = ("dim", "_labels", "_label_array", "_layers", "_keys", "_tuples", "_hash", "_memo")

    def __init__(self, labels: list, layers: Sequence[np.ndarray], keys: Sequence[np.ndarray]):
        for array in (*layers, *keys):
            array.setflags(write=False)
        n = len(labels)
        self.dim = len(layers) - 2
        self._labels = labels
        # None when the ids are the labels; Python ints, whatever their size.
        self._label_array = (
            None if not n or (labels[0] == 0 and labels[-1] == n - 1)
            else np.array(labels, dtype=object)
        )
        self._layers = tuple(layers)
        self._keys = tuple(keys)
        self._tuples: dict[int, list[Face]] = {}
        self._hash: int | None = None
        self._memo: dict = {}

    def _decode(self, rows: np.ndarray) -> list[Face]:
        """Face tuples of rows of vertex ids."""
        if self._label_array is not None:
            rows = self._label_array[rows]
        return list(map(tuple, rows.tolist()))

    def _find(self, face: Sequence[int]) -> int:
        """Row of ``face`` within its dimension, or -1 when it is not a face."""
        if len(face) > self.dim + 1:
            return -1
        labels, n, row = self._labels, len(self._labels), 0
        for keys, v in zip(self._keys[1:], face):
            vertex = bisect_left(labels, v)
            if vertex == n or labels[vertex] != v:
                return -1
            key = row * n + vertex
            row = int(keys.searchsorted(key))
            if row == len(keys) or keys[row] != key:
                return -1
        return row

    # -- basic queries ----------------------------------------------------

    def faces(self, i: int) -> list[Face]:
        """Faces of dimension ``i`` in canonical (lexicographic) order."""
        if not -1 <= i <= self.dim:
            return []
        faces = self._tuples.get(i)
        if faces is None:
            faces = self._tuples[i] = self._decode(self._layers[i + 1])
        return faces

    def n_faces(self, i: int) -> int:
        return len(self._layers[i + 1]) if -1 <= i <= self.dim else 0

    def all_faces(self) -> list[Face]:
        out = []
        for d in range(-1, self.dim + 1):
            out.extend(self.faces(d))
        return out

    def index(self, face: Face) -> int:
        """Row/column index of ``face`` within its dimension."""
        row = self._find(tuple(face))
        if row < 0:
            raise UnknownFaceError(f"face {face!r} not in complex")
        return row

    def __contains__(self, face) -> bool:
        return self._find(tuple(face)) >= 0

    def vertices(self) -> list[int]:
        return list(self._labels)

    def facets(self) -> list[Face]:
        """Inclusion-maximal faces (empty face only for the void complex).

        A face below the top dimension is a facet when no row of the next
        table has it as a boundary face.
        """
        if self.dim < 0:
            return [()]
        out = []
        for d in range(self.dim):
            free = _degrees(self, d) == 0
            if free.any():
                out += self._decode(self._layers[d + 1][free])
        return out + self._decode(self._layers[-1])

    def cofaces(self, face: Face) -> tuple[Face, ...]:
        """Faces one dimension up that contain ``face``, in canonical order.

        They are the rows of ``D_d`` that hold the face's column; nothing
        is memoized.
        """
        row = self.index(face)
        d = len(face) - 1
        if d == self.dim:
            return ()
        rows = np.flatnonzero((coboundary_matrix(self, d).index == row).any(axis=1))
        up = self.faces(d + 1)
        return tuple(up[r] for r in rows.tolist())

    # -- derived complexes -------------------------------------------------

    def pure_part(self, q: int) -> "SimplicialComplex":
        """Closure of the q-faces: the pure q-dimensional part of the complex.

        Memoized; a complex that is its own pure q-part returns itself.
        """
        key = ("pure", q)
        if key not in self._memo:
            marks = _no_marks(self)
            if 0 <= q <= self.dim:
                marks[q + 1][:] = True
            marks = _closure_marks(self, marks)
            # The part is a subcomplex, so equal face counts mean equal
            # complexes.  That case is stored as None: a reference to self
            # would form a cycle, which only the cyclic collector frees.
            same = all(m.all() for m in marks)
            self._memo[key] = None if same else _subcomplex(self, marks)
        return self._memo[key] or self

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self._labels == other._labels
            and len(self._keys) == len(other._keys)
            and all(np.array_equal(a, b) for a, b in zip(self._keys, other._keys))
        )

    def __hash__(self) -> int:
        # The hash of the face tuples, dimension by dimension: the
        # deterministic custom scheme of hodgelap.theorems seeds from it, so
        # the value must not depend on how the faces are stored.
        if self._hash is None:
            self._hash = hash(tuple(tuple(self.faces(d)) for d in range(-1, self.dim + 1)))
        return self._hash

    def __repr__(self) -> str:
        sizes = ", ".join(f"S_{d}:{self.n_faces(d)}" for d in range(0, self.dim + 1))
        return f"SimplicialComplex(dim={self.dim}, {sizes})"


# Most faces that closure_of may build: 2**20, about 10^6 faces and a few
# hundred MB, about 19 times the largest bound that an input of the corpus, the
# tests or the benchmark reaches (55 578, for 10 000 random triangles).
_CLOSURE_BUDGET = 1 << 20

# Most backtracks, each undoing one colored vertex, that the chromatic branch
# and bound (_chromatic_bounds) may make before it raises ResourceError; its
# first descent, the greedy coloring, is free.  Every complex of the corpus
# needs at most 13, and most none.  100 000 take about 2.4 s on a dense
# 80-vertex 1-skeleton of 1500 edges (CPython 3.11, one Xeon core).
_CHROMATIC_BUDGET = 5_000_000


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


def _relabel(faces: list, flat: list) -> tuple[list, dict[int, np.ndarray]]:
    """The sorted vertex labels and, per face size, the faces as rows of ids.

    ``flat`` holds the vertices of ``faces`` one after another.  A vertex's
    id is the rank of its label, and each row is sorted ascending.  Labels
    that do not all fit in int64 are sorted as Python ints, on the same path.
    """
    fits = _INT64[0] <= min(flat) and max(flat) < _INT64[1]
    labels, ids = np.unique(np.array(flat, dtype=np.int64 if fits else object), return_inverse=True)
    sizes = set(map(len, faces))
    if len(sizes) == 1:
        size = sizes.pop()
        groups = {size: ids.reshape(-1, size)}
    else:
        lengths = np.fromiter(map(len, faces), dtype=np.int64, count=len(faces))
        start = lengths.cumsum() - lengths
        groups = {
            size: ids[start[lengths == size][:, None] + np.arange(size)]
            for size in sorted(sizes)
        }
    for rows in groups.values():
        rows.sort(axis=1)
    return labels.tolist(), groups


@functools.cache
def _subsets(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of ``range(size)`` in lexicographic order, read-only.

    Returns the position of each subset's (k-1)-prefix among the
    (k-1)-subsets, and its last element.  The closure budget keeps ``size``
    at most 20, so the cache stays bounded.
    """
    position = {c: j for j, c in enumerate(combinations(range(size), k - 1))}
    subsets = list(combinations(range(size), k))
    prefix = np.array([position[c[:-1]] for c in subsets], dtype=np.int64)
    last = np.array([c[-1] for c in subsets], dtype=np.int64)
    prefix.setflags(write=False)
    last.setflags(write=False)
    return prefix, last


def _closure(labels: list, groups: dict[int, np.ndarray]) -> SimplicialComplex:
    """The closure of the faces in ``groups``, rows of ascending vertex ids by size.

    Every id in 0..len(labels)-1 is used, so the vertex ids are the rows of
    the vertices.  Dimension by dimension from the edges up, the keys of
    the k-subsets of every face come from the rows of their prefixes, found
    one dimension down, and one sort of all keys gives the k-faces in order
    and the row of every subset, which the next dimension reads.
    """
    n = len(labels)
    layers, keys = [_EMPTY_LAYER], [_EMPTY_KEYS]
    top = max(groups, default=0)
    if top:
        keys.append(np.arange(n))
        layers.append(keys[-1][:, None])
    # rank[size][r, j]: row of the j-th subset of face r, in the last dimension built.
    rank = dict(groups)
    for k in range(2, top + 1):
        sizes = [size for size in groups if size >= k]
        parts = []
        for size in sizes:
            prefix, last = _subsets(size, k)
            parts.append(rank[size][:, prefix] * n + groups[size][:, last])
        # Asked for the inverse, np.unique sorts and leaves numpy.ma unloaded.
        key, inverse = np.unique(np.concatenate(parts, axis=None), return_inverse=True)
        start = 0
        for size, part in zip(sizes, parts):
            rank[size] = inverse[start : start + part.size].reshape(part.shape)
            start += part.size
        row, vertex = np.divmod(key, n)
        layer = np.empty((len(key), k), dtype=np.int64)
        layer[:, :-1] = layers[-1][row]
        layer[:, -1] = vertex
        layers.append(layer)
        keys.append(key)
    return SimplicialComplex(labels, layers, keys)


def _small_closure(faces: list) -> SimplicialComplex:
    """The closure of a few small ``faces``, enumerated with Python sets.

    Each dimension's faces are sorted as tuples and ranked one by one into
    the same arrays and keys that :func:`_closure` builds; the tuples are
    kept, so the complex decodes none of them again.
    """
    by_size: dict[int, set] = {}
    for f in faces:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            by_size.setdefault(k, set()).update(combinations(f, k))
    levels = [sorted(by_size[size]) for size in range(1, len(by_size) + 1)]
    labels = [f[0] for f in levels[0]] if levels else []
    n = len(labels)
    ids = levels
    # The labels are distinct non-negative ints, so they are their own ranks
    # exactly when the last one is n-1; otherwise relabel to the ranks.
    if n and labels[-1] != n - 1:
        position = dict(zip(labels, range(n)))
        ids = [[tuple(map(position.__getitem__, f)) for f in level] for level in levels]
    key: list[int] = []
    row = {(): 0}  # the row of each face one dimension down, by its vertex ids
    for level in ids:
        key += [row[f[:-1]] * n + f[-1] for f in level]
        row = dict(zip(level, range(len(level))))
    # One buffer for all vertex ids and one for all keys, cut per dimension.
    vertex_ids = np.fromiter(chain.from_iterable(chain.from_iterable(ids)), np.int64)
    key_array = np.fromiter(key, np.int64, len(key))
    layers, keys = [_EMPTY_LAYER], [_EMPTY_KEYS]
    start = offset = 0
    for size, level in enumerate(levels, start=1):
        count = len(level)
        layers.append(vertex_ids[offset : offset + count * size].reshape(count, size))
        keys.append(key_array[start : start + count])
        start += count
        offset += count * size
    complex_ = SimplicialComplex(labels, layers, keys)
    complex_._tuples.update(enumerate(levels))
    return complex_


# Up to this many subsets (the sum of 2**|f| over the faces given), a closure
# is enumerated with Python sets (_small_closure); past it, with numpy, one
# dimension at a time (_closure).  A numpy call costs about a microsecond
# whatever its size, and the closure makes a dozen of them per dimension,
# which the corpus, thousands of complexes of a few dozen faces, would pay
# on every one; the arrays win from about 128 subsets on.
_SMALL_CLOSURE = 128


def closure_of(faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Inclusion closure of a face set (plus the empty face).

    This is :func:`from_facets` with the empty faces dropped: a malformed
    face raises :class:`MalformedFacetError`, a closure past the budget
    raises :class:`ResourceError` before any face is enumerated, and the
    size of the closure picks its enumeration.
    """
    return _from_lists([f for f in map(list, faces) if f])


def _check_facets(facets: list[list]):
    """Raise the error of the first malformed facet, one facet at a time."""
    for vs in facets:
        if not vs:
            raise MalformedFacetError("facets must be non-empty vertex lists")
        try:
            ordered = sorted(vs)
        except TypeError:  # vertices that do not compare, such as None or a str
            raise MalformedFacetError(f"vertex ids must be non-negative ints: {vs!r}") from None
        if len(set(ordered)) != len(ordered):
            raise MalformedFacetError(f"repeated vertex in face {vs!r}")
        if any((not isinstance(v, int)) or isinstance(v, bool) or v < 0 for v in ordered):
            raise MalformedFacetError(f"vertex ids must be non-negative ints: {vs!r}")


def from_facets(facets: Sequence[Iterable[int]]) -> SimplicialComplex:
    """Build the complex generated by ``facets`` (their inclusion closure).

    Non-maximal entries are harmless; re-extracting ``facets()`` from the
    result recovers the maximal faces only.  Every facet must be a
    non-empty list of distinct non-negative ints; the checks run over all
    facets at once, and only a failing input is walked facet by facet to
    report the first malformed one.  When :func:`_closure_bound` passes
    ``_CLOSURE_BUDGET`` this raises :class:`ResourceError` before
    enumerating any face.
    """
    return _from_lists(list(map(list, facets)))


def _from_lists(facets: list[list]) -> SimplicialComplex:
    """:func:`from_facets` of facets already copied into fresh lists."""
    flat = list(chain.from_iterable(facets))
    if (
        not all(facets)
        or not set(map(type, flat)) <= {int}
        or (flat and min(flat) < 0)
        or sum(map(len, map(set, facets))) != len(flat)
    ):
        _check_facets(facets)
    sizes = Counter(map(len, facets))
    subsets = sum(count << size for size, count in sizes.items())
    if subsets > _CLOSURE_BUDGET and _closure_bound(facets) > _CLOSURE_BUDGET:
        raise ResourceError(
            f"the closure would have more than {_CLOSURE_BUDGET} faces; "
            f"the largest face given has {max(sizes)} vertices"
        )
    if subsets > _SMALL_CLOSURE:
        return _closure(*_relabel(facets, flat))
    return _small_closure(facets)


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
    i+2 stored entries, and i is ``index.shape[1] - 2``: column
    ``index[r, k]`` -- the face that omits the k-th vertex of the row's
    face -- with value ``values[r, k]``.  For
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

    The face that omits the last vertex of a row face is its prefix, whose
    row the face key holds.  The face that omits vertex k < i+1 is the
    prefix without its vertex k, read from ``D_{i-1}``, followed by the
    last vertex, so its key is known and one ``searchsorted`` finds it.
    """
    if not -1 <= i <= complex_.dim:
        raise DimensionError(f"coboundary index {i} out of range -1..{complex_.dim}")
    key = ("cobound", i)
    if key not in complex_._memo:
        n = max(len(complex_._labels), 1)
        upper = complex_._keys[i + 2] if i < complex_.dim else _EMPTY_KEYS[:0]
        index = np.empty((len(upper), i + 2), dtype=np.int64)
        prefix = upper // n
        index[:, -1] = prefix
        if i >= 0:
            lower = coboundary_matrix(complex_, i - 1).index
            omitted = lower[prefix] * n + (upper % n)[:, None]
            index[:, :-1] = complex_._keys[i + 1].searchsorted(omitted)
        values = np.ones(index.shape, dtype=np.int64)
        values[:, 1::2] = -1  # the face that omits vertex k has sign (-1)**k
        index.setflags(write=False)
        values.setflags(write=False)
        complex_._memo[key] = CoboundaryMatrix(index, complex_.n_faces(i), values)
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


def _labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component labels of the graph on nodes 0..n-1 with edges ``(a[k], b[k])``.

    Every node is labelled with the smallest node of its component.  Each
    round hooks the larger root of every edge whose ends still have
    different roots onto the smaller one, then jumps pointers until every
    node points at a root.  A round costs O(edges) numpy work and merges at
    least one pair of trees in every component that still has several.
    Few rounds are needed in practice: at most 6 on random 2-complexes of
    3000 triangles, and 2 on long strips, paths and simplex skeleta.
    """
    parent = np.arange(n)
    while True:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        if not apart.any():
            return parent
        a, b = a[apart], b[apart]
        root_a, root_b = root_a[apart], root_b[apart]
        # Every pointer goes to a smaller node, so no cycle can form.
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


def _components(table: CoboundaryMatrix, of: str) -> np.ndarray:
    """Connected-component labels of the ``"rows"`` or ``"columns"`` of one table ``D_j``.

    The graph has a node for every (j+1)-face (row), then one for every
    j-face (column), each dimension in canonical order, and one edge per
    stored entry, from a face to one of its boundary faces.  A label is the
    smallest node of its component, so a component is labelled by its first
    row on both sides, and a column with no coface, alone in its component,
    by a label past every row.
    """
    rows, width = table.index.shape
    labels = _labels(rows + table.n_cols, np.arange(rows).repeat(width), rows + table.index.ravel())
    return labels[:rows] if of == "rows" else labels[rows:]


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


def _no_marks(complex_: SimplicialComplex) -> list[np.ndarray]:
    """One all-False mark per face, one array per dimension from -1."""
    return [np.zeros(len(layer), dtype=bool) for layer in complex_._layers]


def _closure_marks(complex_: SimplicialComplex, marks: list[np.ndarray]) -> list[np.ndarray]:
    """Also mark, in place, every face of a marked face; the empty face is always marked."""
    for d in range(complex_.dim, 0, -1):
        marks[d][coboundary_matrix(complex_, d - 1).index[marks[d + 1]].ravel()] = True
    marks[0][:] = True
    return marks


def _star_marks(complex_: SimplicialComplex, marks: list[np.ndarray]) -> list[np.ndarray]:
    """Also mark, in place, every face that has a marked non-empty face."""
    marks[0][:] = False
    for d in range(complex_.dim):
        marks[d + 2] |= marks[d + 1][coboundary_matrix(complex_, d).index].any(axis=1)
    return marks


def _marked_faces(complex_: SimplicialComplex, marks: list[np.ndarray]) -> list[Face]:
    """The marked non-empty faces as tuples, in canonical order."""
    out = []
    for d in range(complex_.dim + 1):
        out += complex_._decode(complex_._layers[d + 1][marks[d + 1]])
    return out


def _subcomplex(complex_: SimplicialComplex, marks: list[np.ndarray]) -> SimplicialComplex:
    """The subcomplex of the marked faces; the marks must be closed downwards.

    ``marks`` holds one array per dimension from -1, and may stop early.

    The kept vertices are relabelled to 0..m-1 in order, so each kept row
    stays in lexicographic order; its key takes the new row of its prefix.
    """
    n = len(complex_._labels)
    layers, keys, labels = [_EMPTY_LAYER], [_EMPTY_KEYS], []
    prefix_row = _EMPTY_KEYS  # the new row of each kept face one dimension down
    for d, mark in enumerate(marks[1:]):
        if not mark.any():
            break
        new_row = np.cumsum(mark) - 1
        if d == 0:
            vertex_id = new_row
            labels = list(compress(complex_._labels, mark.tolist()))
        row, last = np.divmod(complex_._keys[d + 1][mark], n)
        keys.append(prefix_row[row] * len(labels) + vertex_id[last])
        layers.append(vertex_id[complex_._layers[d + 1][mark]])
        prefix_row = new_row
    return SimplicialComplex(labels, layers, keys)


# ---------------------------------------------------------------------------
# dual graphs, connectivity, balance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualGraph:
    """Signed graph on the i-faces of a complex; :func:`dual_graph` builds either flavor.

    ``down`` flavor: nodes are adjacent when their intersection is a face of
    one dimension lower; the sign is the product of the boundary signs of
    the shared face in each node.  ``up`` flavor: nodes are adjacent when
    they lie in a common coface; the sign is the product of their boundary
    signs in that coface.
    """

    nodes: tuple[Face, ...]
    edges: tuple[tuple[int, int, int], ...]

    def to_complex(self) -> SimplicialComplex:
        """The underlying unsigned graph as a 1-dimensional complex."""
        faces = [(j,) for j in range(len(self.nodes))]
        faces += [tuple(sorted((a, b))) for a, b, _ in self.edges]
        return closure_of(faces)


def dual_graph(complex_: SimplicialComplex, i: int, flavor: str) -> DualGraph:
    """The signed dual graph at dimension ``i``, edges sorted by their ends ``a < b``.

    Two i-faces share at most one (i-1)-face and lie in at most one common
    (i+1)-face, so each edge comes from exactly one pair of entries.
    """
    if not 0 <= i <= complex_.dim:
        raise DimensionError(f"dual graph dimension {i} out of range 0..{complex_.dim}")
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
    return DualGraph(tuple(complex_.faces(i)), tuple(edges))


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    assignment: Mapping[Face, int] | None


def signed_balance(complex_: SimplicialComplex, q: int, mode: str) -> BalanceResult:
    """Solvability of ``x_F * x_F' * sign(edge) == target`` on the q-faces.

    The edges are those of the signed down dual graph.  ``antiparallel``
    mode (target -1) is orientability of the pure q-dimensional part: an
    orientation exists in which every shared (q-1)-face receives opposite
    induced orientations.  ``parallel`` mode (target +1) is the orientation
    condition under which the top eigenvalue q+1 of the (q-1)-up operator
    is attained.  Decided on a signed double cover of the graph of
    ``D_{q-1}`` (:func:`_cover_labels`); a solution puts +1 on the first
    face of each component.
    """
    if mode not in ("antiparallel", "parallel"):
        raise ValueError(f"mode must be 'antiparallel' or 'parallel', got {mode!r}")
    labels = _cover_labels(complex_, q, -1 if mode == "antiparallel" else 1)
    if labels is None or (labels[0] == labels[1]).any():
        return BalanceResult(False, None)
    signs = np.where(labels[0] < labels[1], 1, -1).tolist()
    return BalanceResult(True, dict(zip(complex_.faces(q), signs)))


def _cover_labels(complex_: SimplicialComplex, q: int, target: int):
    """Component labels of both copies of each q-face in a signed double cover.

    The graph is that of ``D_{q-1}`` (:func:`_components`), each edge signed
    by its entry.  Node v has the copies v and v + n; an edge of sign +1
    joins like copies, one of sign -1 unlike ones.  Signs x with
    ``x_u * x_v * sign == 1`` on every edge exist on a component exactly
    when no node has both copies in one component of the cover (Harary,
    Michigan Math. J. 2, 1953).  Eliminating the (q-1)-faces leaves the
    equations of target +1 on the down dual graph.

    Target -1 reverses the sign of every dual edge: impossible at a
    (q-1)-face with three cofaces, so this returns None; otherwise negating
    the second entry of each column with two does it.

    Returns the labels ``(plus, minus)`` of the two copies of every q-face.
    A label is the smallest node of its component, so ``min(plus[a],
    minus[a])`` is the first q-face of a's component, and the solution with
    x = +1 there has x_a = +1 exactly when plus[a] < minus[a].
    """
    if not 0 <= q <= complex_.dim:
        raise DimensionError(f"balance dimension {q} out of range 0..{complex_.dim}")
    table = coboundary_matrix(complex_, q - 1)
    rows, width = table.index.shape
    cols = table.index.ravel()
    negative = table.values.ravel() != 1
    if target == -1:
        if (np.bincount(cols) > 2).any():
            return None
        second = np.ones(len(cols), dtype=bool)
        second[np.unique(cols, return_index=True)[1]] = False
        negative ^= second
    n = rows + table.n_cols
    a, b = np.arange(rows).repeat(width), rows + cols
    flip = n * negative
    labels = _labels(2 * n, np.concatenate([a, a + n]), np.concatenate([b + flip, b + n - flip]))
    return labels[:rows], labels[n : n + rows]


def _component_balance(complex_: SimplicialComplex, q: int) -> list[bool]:
    """The parallel balance of every q-path component, ordered by first face.

    One labelling of the double cover with target +1 (:func:`_cover_labels`).
    The components are those of :func:`_components` on ``D_{q-1}``, and a
    component's edges are those of its own closure, so its flag is
    ``signed_balance(closure_of(component), q, "parallel").balanced``.
    """
    plus, minus = _cover_labels(complex_, q, 1)
    first = np.flatnonzero(np.minimum(plus, minus) == np.arange(len(plus)))
    return (plus[first] != minus[first]).tolist()


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------


def _chromatic_bounds(complex_: SimplicialComplex, ceiling: int) -> tuple[int, int]:
    """Bounds ``(lower, upper)`` on the chromatic number of the 1-skeleton.

    ``lower`` is the larger of a greedy clique and dim+1, since a d-face is
    a (d+1)-clique; ``upper`` is the number of colors of the best coloring
    found.  Both come from one loop, Brelaz's exact DSATUR branch and bound
    (CACM 1979): color next the uncolored vertex whose neighbors show the
    most colors, then the one of highest degree, then the smallest, with
    its smallest free color and at most one color past those in use.  The
    first descent is the greedy DSATUR coloring.  Only when ``lower <=
    ceiling`` does the search go on, backtracking for colorings with fewer
    colors until it meets ``lower`` or has tried them all, and then both
    bounds are the chromatic number; a prefix that already uses as many
    colors as the best coloring is given up.  Each vertex keeps its
    neighbors' colors with their counts, so a node costs its degree plus
    the heap operations of a lazy heap.  Each backtrack spends one unit of
    ``_CHROMATIC_BUDGET``; past it, :class:`ResourceError`.
    """
    n = complex_.n_faces(0)
    if not n:
        raise DimensionError("chromatic number needs at least one vertex")
    adj = [set() for _ in range(n)]
    for a, b in complex_._layers[2].tolist() if complex_.dim >= 1 else ():
        adj[a].add(b)
        adj[b].add(a)
    clique: list[int] = []
    for v in sorted(range(n), key=lambda v: -len(adj[v])):
        if all(v in adj[u] for u in clique):
            clique.append(v)
    lower = max(len(clique), complex_.dim + 1)

    colors = [-1] * n
    seen: list[dict[int, int]] = [{} for _ in range(n)]  # neighbor colors, counted

    def key(u: int) -> tuple[int, int, int]:
        return -len(seen[u]), -len(adj[u]), u

    # A sorted list is a heap.  An entry is stale once its vertex is colored
    # or its saturation moved; every uncolored vertex has a fresh one.
    heap = sorted(map(key, range(n)))
    trail: list[tuple[int, int]] = []  # (vertex, colors in use before it)
    budget, best, used, v, c = _CHROMATIC_BUDGET, n + 1, 0, heap[0][2], 0
    while True:
        # At most one new color, and fewer than the best coloring's in all;
        # none once the colored prefix uses as many as that coloring.
        limit = min(used + 1, best - 1) if used < best else 0
        c = next((c for c in range(c, limit) if c not in seen[v]), -1)
        if c >= 0:
            colors[v] = c
            trail.append((v, used))
            used = max(used, c + 1)
            for u in adj[v]:
                seen[u][c] = seen[u].get(c, 0) + 1
                if seen[u][c] == 1 and colors[u] < 0:
                    heapq.heappush(heap, key(u))
            if len(trail) < n:
                while colors[heap[0][2]] >= 0 or heap[0] != key(heap[0][2]):
                    heapq.heappop(heap)
                v, c = heap[0][2], 0
                continue
            best = used
            if best == lower or lower > ceiling:
                return lower, best
        if not trail:
            return best, best
        budget -= 1
        if budget < 0:
            raise ResourceError("chromatic number search budget exceeded")
        v, used = trail.pop()
        c, colors[v] = colors[v], -1
        for u in adj[v]:
            seen[u][c] -= 1
            if not seen[u][c]:
                del seen[u][c]
                heapq.heappush(heap, key(u))
        heapq.heappush(heap, key(v))
        if len(heap) > 8 * n:  # stale entries, dropped so a long search stays small
            heap = sorted(key(u) for u in range(n) if colors[u] < 0)
        c += 1


def chromatic_number_1skel(complex_: SimplicialComplex) -> int:
    """Exact chromatic number of the 1-skeleton (:func:`_chromatic_bounds`, searched)."""
    return _chromatic_bounds(complex_, complex_.n_faces(0))[1]


# ---------------------------------------------------------------------------
# regularity, motifs
# ---------------------------------------------------------------------------


def is_regular(
    complex_: SimplicialComplex,
    i: int,
    coface_weights: Sequence[float] | None = None,
):
    """Whether all i-faces have the same degree, to a relative 1e-9.

    Degrees are sums of (i+1)-coface weights, given as the vector of those
    weights in canonical face order (all 1 when none is given).  Returns
    ``(True, r)`` or ``(False, (face_a, face_b))`` with a witness pair of
    differing degrees.
    """
    if not 0 <= i < max(complex_.dim, 1):
        raise DimensionError(f"regularity dimension {i} out of range")
    if not complex_.n_faces(i):
        return True, 0.0
    degs = _degrees(complex_, i, coface_weights).astype(float)
    r = float(degs[0])
    off = np.flatnonzero(np.abs(degs - r) > 1e-9 * max(1.0, abs(r)))
    if off.size:
        faces = complex_.faces(i)
        return False, (faces[0], faces[off[0]])
    return True, r


@dataclass(frozen=True)
class Motif:
    """A vertex set of a complex, with its link, star and closed star.

    The motif is the subcomplex induced on ``vertices``: every face of the
    ambient complex whose vertices all lie in the set, which is what the
    duplication construction asks of a motif.  ``star`` holds the faces that
    contain a motif vertex, in canonical order, ``closed_star`` their
    closure, and ``link`` the faces of the closed star that hold no motif
    vertex; the link dimension identifies the operator order the motif
    interacts with.
    """

    vertices: tuple[int, ...]
    link: SimplicialComplex
    star: tuple[Face, ...] = field(repr=False, default=())
    closed_star: SimplicialComplex | None = field(repr=False, compare=False, default=None)

    @property
    def link_dim(self) -> int:
        return self.link.dim


def motif(complex_: SimplicialComplex, vertices: Iterable[int]) -> Motif:
    """The motif on ``vertices``, memoized on the complex.

    Its star, closed star and link come from the boundary tables: every
    non-empty induced face holds a chosen vertex, which is itself an induced
    face, so their star is the star of the chosen vertices, and the star of
    their closure is that star again.
    """
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise InvalidMotifError("a motif needs at least one vertex")
    key = ("motif", vs)
    if key not in complex_._memo:
        star = _no_marks(complex_)
        for v in vs:
            row = complex_._find((v,))
            if row < 0:
                raise UnknownFaceError(f"vertex {v} not in complex")
            star[1][row] = True
        star = _star_marks(complex_, star)
        closed = _closure_marks(complex_, [m.copy() for m in star])
        complex_._memo[key] = Motif(
            vs,
            _subcomplex(complex_, [a & ~b for a, b in zip(closed, star)]),
            tuple(_marked_faces(complex_, star)),
            _subcomplex(complex_, closed),
        )
    return complex_._memo[key]
