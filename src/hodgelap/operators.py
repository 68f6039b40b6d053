"""Weight schemes, weighted coboundaries, and Laplacian assembly.

The up, down and full Laplacians acting on i-cochains, with the signed
coboundary matrices ``D_i`` and the diagonal weight matrices ``W_i``::

    L_i_up   = W_i^{-1} D_i^T W_{i+1} D_i
    L_i_down = D_{i-1} W_{i-1}^{-1} D_{i-1}^T W_i
    L_i      = L_i_up + L_i_down

are self-adjoint for the weighted inner product.  Their symmetric forms
``S = W_i^{1/2} L W_i^{-1/2}`` are Gram matrices of the weighted coboundary
``B_i = W_{i+1}^{1/2} D_i W_i^{-1/2}``: ``B_i^T B_i`` (up),
``B_{i-1} B_{i-1}^T`` (down) and their sum (full).

The signed incidence itself lives in :mod:`hodgelap.core`: ``D_i`` is the
boundary-index table of :class:`~hodgelap.core.CoboundaryMatrix`, an
(|S_{i+1}|, i+2) table of boundary-face indices with the signs
``(-1)**k`` as values; :func:`coboundary_matrix` and the table class are
re-exported here.  This module weights it: ``B_i`` is the same table with
the weighted values.  :func:`laplacian` stores the terms themselves --
``B_i`` for the up part, ``B_{i-1}`` for the down part, both for the full
operator -- with the weights of the i-faces, and nothing else;
:class:`LaplacianMatrix` derives the dense ``S`` from them on first access,
symmetric by construction, and ``L`` as ``W_i^{-1/2} S W_i^{1/2}``.
Keeping the terms lets :func:`hodgelap.spectra.spectrum` eigensolve each
term on its smaller Gram side, for every direction, and memoize the
eigenvalues of each side on the table, so operators built from one table
share its solves.  Both Gram orientations are summed from the table's
entry pairs in numpy; no sparse-matrix library is involved.

Weights are kept as arrays in canonical face order, one read-only vector
per complex, scheme and dimension, built for every dimension at once on
first use and memoized on the complex; a dimension above the top has the
empty vector.  :func:`laplacian` takes ``W_i`` from it, and
:func:`weighted_coboundary`, the normalized degrees and
:func:`hodgelap.spectra.bounds_report` read it too; no face-keyed dict is
built on that path.  :func:`normalized_weight_map` returns a face ->
weight dict, built from vectors of its own.  Each weighted table is
built once per complex, dimension and scheme, and memoized on the complex
as well, so every :func:`laplacian` of one complex and scheme -- L_j^up
and L_{j+1}^down alike, whoever builds them -- holds the same ``B_j`` and
reads its solved sides.  The built-in schemes are keyed by their kind.
A custom map is a dict, which cannot be hashed, so it is keyed by its
identity; the memo keeps a reference to the map, so that identity cannot
pass to another map while the complex lives, and the map must not be
changed once used.  The vectors and tables are read-only.
Every memo lives on the complex (and the pair layout on ``D_j``), so it is
freed with the complex.

Three weight schemes are supported.  ``combinatorial`` puts weight 1 on
every face (the classical higher-order Laplacian; at i = 0 up this is the
graph Laplacian).  ``normalized`` assigns weight 1 to every maximal face
and the degree -- the sum of the weights of the cofaces -- to every other
face, computed top-down by dimension from the tables: the degrees of the
d-faces are :func:`hodgelap.core._degrees` of the (d+1)-weights, one
``np.bincount`` over the boundary index of ``D_d``, and a face is maximal
exactly when its degree is 0; at i = 0 up this is the normalized graph
Laplacian, and in general the up spectrum lies in [0, i+2].
``custom`` takes an explicit finite positive weight per face, gathered and
checked one dimension at a time; the first face, in canonical order, that
is missing or not finite and positive is named in the error.  The helper
:func:`normalized_weight_map` gives the normalized weights in custom-map
form, the factor weights of the product weights on a join or graph product.

i-faces with no coface have degree zero: their rows of the up operator
are zero and each contributes one zero eigenvalue, which keeps the
zero-multiplicity counting exactly right while avoiding any division by a
zero degree.  Under the normalized scheme such faces are maximal and
therefore carry weight 1, so no weight is ever zero.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    CoboundaryMatrix,
    Face,
    SimplicialComplex,
    _degrees,
    _entry_pairs,
    boundary_sign,
    coboundary_matrix,
)
from .errors import DimensionError, WeightError

COMBINATORIAL = "combinatorial"
NORMALIZED = "normalized"
CUSTOM = "custom"


@dataclass(frozen=True)
class WeightScheme:
    """Selects the weight function: combinatorial, normalized, or custom.

    ``custom`` carries an explicit map from face tuples to positive reals;
    it must cover every face of the complex it is used with (the weight of
    the empty face defaults to 1 when omitted).
    """

    kind: str
    custom: Mapping[Face, float] | None = None

    def __post_init__(self):
        if self.kind not in (COMBINATORIAL, NORMALIZED, CUSTOM):
            raise WeightError(f"unknown weight scheme kind {self.kind!r}")
        if self.kind == CUSTOM and self.custom is None:
            raise WeightError("custom scheme needs a weight map")

    @classmethod
    def combinatorial(cls) -> "WeightScheme":
        return cls(COMBINATORIAL)

    @classmethod
    def normalized(cls) -> "WeightScheme":
        return cls(NORMALIZED)

    @classmethod
    def from_map(cls, mapping: Mapping[Face, float]) -> "WeightScheme":
        return cls(CUSTOM, {tuple(k): float(v) for k, v in mapping.items()})


def normalized_weight_map(complex_: SimplicialComplex) -> dict[Face, float]:
    """Weights of the normalized Laplacian, as an explicit map.

    Every maximal face gets weight 1; every other face gets its degree, the
    sum of the weights of its cofaces, so the empty face gets the sum of the
    vertex weights.  The map is a fresh dict, built from fresh weight
    vectors, by descending dimension.
    """
    return _weights(complex_, WeightScheme.normalized())


def _scheme_key(scheme: WeightScheme):
    """A scheme's memo key: its kind, or the identity of its custom map, a dict."""
    return id(scheme.custom) if scheme.kind == CUSTOM else scheme.kind


# The weight vector of every dimension above the top: there are no faces.
_NO_FACES = np.zeros(0)
_NO_FACES.setflags(write=False)


def _weight_vector(complex_: SimplicialComplex, scheme: WeightScheme, d: int) -> np.ndarray:
    """The weights of the d-faces in canonical order, read-only.

    The vectors of every dimension are built once per complex and scheme;
    the vector is empty for every dimension above the top.
    """
    key = ("wvec", _scheme_key(scheme))
    if key not in complex_._memo:
        # The entry keeps a custom map alive, so its id names no other map.
        complex_._memo[key] = (scheme.custom, _build_vectors(complex_, scheme))
    return complex_._memo[key][1].get(d, _NO_FACES)


def _build_vectors(complex_: SimplicialComplex, scheme: WeightScheme) -> dict[int, np.ndarray]:
    """The vectors of :func:`_weight_vector`, built afresh, validated and read-only."""
    if scheme.kind == COMBINATORIAL:
        vectors = {d: np.ones(complex_.n_faces(d)) for d in range(-1, complex_.dim + 1)}
    elif scheme.kind == NORMALIZED:
        vectors = _normalized_vectors(complex_)
    else:
        dims = range(-1, complex_.dim + 1)
        vectors = {d: _custom_vector(complex_, scheme.custom, d) for d in dims}
    for w in vectors.values():
        w.setflags(write=False)
    return vectors


def _normalized_vectors(complex_: SimplicialComplex) -> dict[int, np.ndarray]:
    """Normalized weights by descending dimension, read from the boundary tables.

    A d-face gets its degree from :func:`_degrees`, the sum of the weights
    of its (d+1)-cofaces added in canonical order.  Every weight is
    positive, so a degree is 0 exactly when the face has no coface; such a
    face gets weight 1.
    """
    vectors = {}
    upper = _NO_FACES
    for d in range(complex_.dim, -2, -1):
        degree = _degrees(complex_, d, upper)
        upper = vectors[d] = np.where(degree > 0, degree, 1.0)
    return vectors


def _custom_vector(
    complex_: SimplicialComplex, custom: Mapping[Face, float], d: int
) -> np.ndarray:
    """The d-face weights of a custom map; the empty face defaults to 1.

    Raises on the first face, in canonical order, that the map misses or
    weighs with anything but a finite positive number.
    """
    faces = complex_.faces(d)
    if d == -1:
        raw = [custom.get((), 1.0)]
    else:
        raw = [custom.get(f) for f in faces]
    w = np.array(raw, dtype=float)  # a missing face reads as NaN
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        f, value = faces[bad[0]], float(w[bad[0]])
        if f not in custom:
            raise WeightError(f"custom scheme is missing face {f!r}")
        raise WeightError(f"weight of face {f!r} must be finite and positive, got {value}")
    return w


def _weights(complex_: SimplicialComplex, scheme: WeightScheme) -> dict[Face, float]:
    """Every face's weight under a scheme, as a face -> weight dict built afresh.

    The vectors are built anew and not memoized, so the map shares nothing
    with the weighted tables.  The normalized map goes by descending
    dimension, the others ascending.
    """
    dims = range(-1, complex_.dim + 1)
    vectors = _build_vectors(complex_, scheme)
    out: dict[Face, float] = {}
    for d in reversed(dims) if scheme.kind == NORMALIZED else dims:
        out.update(zip(complex_.faces(d), vectors[d].tolist()))
    return out


def weighted_coboundary(
    complex_: SimplicialComplex, i: int, scheme: WeightScheme
) -> CoboundaryMatrix:
    """B_i = W_{i+1}^{1/2} D_i W_i^{-1/2}: the table of D_i with float values.

    Built once per complex, i and scheme and shared read-only, with its
    solve memo, by every caller; it shares ``index`` and the entry-pair
    layout with D_i.
    """
    key = ("weighted", i, _scheme_key(scheme))
    if key not in complex_._memo:
        d = coboundary_matrix(complex_, i)
        sqrt_lo = np.sqrt(_weight_vector(complex_, scheme, i))
        sqrt_hi = np.sqrt(_weight_vector(complex_, scheme, i + 1))
        values = d.values * (sqrt_hi[:, None] / sqrt_lo[d.index])
        values.setflags(write=False)
        complex_._memo[key] = CoboundaryMatrix(d.index, d.n_cols, values, d._pairs)
    return complex_._memo[key]


def _gram(b: CoboundaryMatrix, of: str) -> np.ndarray:
    """Dense Gram matrix of the ``"columns"`` (``B^T B``) or ``"rows"`` (``B B^T``) of ``b``.

    Entry (a, c) of ``B^T B`` is the sum of ``B[r, a] B[r, c]`` over the
    rows r, so it collects every pair of stored entries that share a row;
    ``B B^T`` likewise pairs the entries that share a column.  All pairs are
    formed at once and summed into the dense result by one ``np.bincount``.
    Products that overflow become inf silently; callers check the
    eigenvalues for finiteness.
    """
    size = b.shape[1] if of == "columns" else b.shape[0]
    with np.errstate(over="ignore"):
        left, right, products = _entry_pairs(b, of)
    return np.bincount(
        left * size + right, weights=products, minlength=size * size
    ).reshape(size, size)


@dataclass(frozen=True)
class LaplacianMatrix:
    """A Laplacian on i-cochains, kept as its weighted coboundary terms.

    ``up`` is ``B_i``, None for the down direction and at the top
    dimension; ``down`` is ``B_{i-1}``, None for the up direction and at
    i = -1; a full operator stores each one that exists.  ``weights`` is
    the diagonal of W_i, the memoized read-only weight vector of the
    i-faces, so its length is n = |S_i|.  ``symmetric`` is the
    dense form ``S = W^{1/2} L W^{-1/2}``, indexed by the canonical order of
    the i-faces; it has the spectrum of ``L``, but
    :func:`hodgelap.spectra.spectrum` never builds it: it solves each term
    on its own, smaller Gram side.  Faces with no coface have zero rows in
    the up operator, and each contributes one zero eigenvalue.
    """

    up: CoboundaryMatrix | None
    down: CoboundaryMatrix | None
    weights: np.ndarray

    @functools.cached_property
    def symmetric(self) -> np.ndarray:
        """``B_i^T B_i + B_{i-1} B_{i-1}^T`` over the stored terms, built on first access."""
        s = np.zeros((self.n, self.n))
        if self.up is not None:
            s += _gram(self.up, "columns")
        if self.down is not None:
            s += _gram(self.down, "rows")
        return s

    @property
    def matrix(self) -> np.ndarray:
        """The operator L itself, ``W^{-1/2} S W^{1/2}``."""
        s = np.sqrt(self.weights)
        return self.symmetric / s[:, None] * s[None, :]

    @property
    def n(self) -> int:
        return len(self.weights)


def laplacian(
    complex_: SimplicialComplex, i: int, direction: str, scheme: WeightScheme
) -> LaplacianMatrix:
    """Build L_i^up / L_i^down / L_i in the canonical basis.

    Degenerate boundary cases are well defined rather than errors: the up
    operator at the top dimension and the down operator at i = -1 are zero
    maps, with no stored term, whose spectra are all zeros of length |S_i|.
    The terms are the memoized tables of :func:`weighted_coboundary`, so
    ``laplacian(k, j, "up", s).up is laplacian(k, j + 1, "down", s).down``.
    """
    if direction not in ("up", "down", "full"):
        raise ValueError(f"direction must be up/down/full, got {direction!r}")
    if not -1 <= i <= complex_.dim:
        raise DimensionError(f"laplacian dimension {i} out of range -1..{complex_.dim}")
    w_i = _weight_vector(complex_, scheme, i)
    up = down = None
    if direction in ("up", "full") and complex_.n_faces(i + 1) > 0:
        up = weighted_coboundary(complex_, i, scheme)
    if direction in ("down", "full") and i >= 0:
        down = weighted_coboundary(complex_, i - 1, scheme)
    return LaplacianMatrix(up, down, w_i)


def _entrywise_weights(complex_: SimplicialComplex, scheme: WeightScheme) -> dict[Face, float]:
    """The weights of :func:`entrywise_laplacian`, read from no table.

    The normalized weights are summed top-down over face tuples, each face
    adding its weight to the degree of each of its boundary faces; the
    other schemes read no table anyway (:func:`_weights`).
    """
    if scheme.kind != NORMALIZED:
        return _weights(complex_, scheme)
    wmap: dict[Face, float] = {}
    degree: dict[Face, float] = {}
    for d in range(complex_.dim, -2, -1):
        for f in complex_.faces(d):
            w = wmap[f] = degree.get(f, 1.0)
            for k in range(len(f)):
                e = f[:k] + f[k + 1 :]
                degree[e] = degree.get(e, 0.0) + w
    return wmap


def entrywise_laplacian(
    complex_: SimplicialComplex, i: int, direction: str, scheme: WeightScheme
) -> np.ndarray:
    """Reference assembly straight from the entrywise operator formulas.

    Diagonal of the up operator is deg(F)/w(F); the off-diagonal entry for
    faces sharing a coface is the product of their boundary signs times
    w(coface)/w(row face).  The down operator mirrors this one dimension
    below, with the asymmetric factor w(col face)/w(shared face).  Used to
    cross-check the Gram assembly, so it reads no boundary table, memoized
    weight map, weighted table or solve: its weights are those of
    :func:`_entrywise_weights`, and the faces that share a boundary face
    are found by a subset test.
    """
    wmap = _entrywise_weights(complex_, scheme)
    faces = complex_.faces(i)
    n = len(faces)
    out = np.zeros((n, n))
    if direction in ("up", "full"):
        for g in complex_.faces(i + 1):
            subs = [(g[:k] + g[k + 1 :], -1 if k % 2 else 1) for k in range(len(g))]
            for fa, sa in subs:
                a = complex_.index(fa)
                out[a, a] += wmap[g] / wmap[fa]
                for fb, sb in subs:
                    if fb != fa:
                        out[a, complex_.index(fb)] += sa * sb * wmap[g] / wmap[fa]
    if direction in ("down", "full") and i >= 0:
        for fa in faces:
            a = complex_.index(fa)
            for k in range(len(fa)):
                e = fa[:k] + fa[k + 1 :]
                out[a, a] += wmap[fa] / wmap[e]
                se = boundary_sign(fa, e)
                for fb in faces:
                    if fb != fa and set(e) < set(fb):
                        b = complex_.index(fb)
                        out[a, b] += se * boundary_sign(fb, e) * wmap[fb] / wmap[e]
    return out
