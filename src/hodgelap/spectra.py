"""Spectra, exact homology, zero-multiplicity formulas, and spectral bounds.

Eigenvalues are computed by a dense symmetric eigensolver on a Gram
matrix of the weighted coboundary ``B`` (see :mod:`hodgelap.operators`),
so they are real and sorted.  ``B`` is kept as a boundary-index table --
row r holds its i+2 columns and their values -- and the Gram matrix is
summed from the table's entry pairs.  A Laplacian stores up to two terms,
``B_i`` (up) and ``B_{i-1}`` (down); its symmetric form of size n = |S_i|
is ``B_i^T B_i + B_{i-1} B_{i-1}^T``, or the one stored term.  ``spectrum``
follows one rule for every operator.  Each stored term is solved on its
side of size n, or on its other side (``B_i B_i^T``, ``B_{i-1}^T B_{i-1}``)
when that is strictly smaller: both sides of a Gram form have the same
nonzero eigenvalues with multiplicity.  The terms' k values are joined.
When k < n, n - k exact zeros are added, written as 0.0, not computed:
the n x n form has rank at most k.  When k > n, the n largest values are
kept.  That is exact for a full operator: ``D_i D_{i-1} = 0``
gives ``B_i B_{i-1} = 0``, so the ranges of the two terms are orthogonal,
the nonzero spectrum of the sum is the union of the terms' nonzero
spectra, at most n values are nonzero, and the values dropped are
numerical zeros.  No rank and no threshold enters.  An operator with no
stored term gets n zeros and no eigensolve.  The zero threshold defaults
to ``1e-8 * max(1, largest magnitude)`` and is the only tolerance involved
in counting zeros.

A table keeps the eigenvalues of each side solved on it, read-only, in
its ``_memo``, keyed by side, whole or block by block, so a side is
solved once per table; no Gram matrix is kept.
:func:`hodgelap.operators.weighted_coboundary` builds one table per
complex, dimension and scheme, so every operator built from it
shares its solves: ``B_j`` is the up term of L_j and the down term of
L_{j+1}, in the Hodge check, in ``bounds_report`` and in any repeated
call.  L_j^up solves the rows of ``B_j`` when f_{j+1} < f_j and
L_{j+1}^down its columns when f_j < f_{j+1}, so whenever f_j != f_{j+1}
both pick the same side and read one array, and their ``up-eq-down-next``
deviation is exactly 0 by construction.  Where f_j = f_{j+1}, up solves
``B_j^T B_j`` and down ``B_j B_j^T``, two different matrices, and the
deviation is rounding.  The independent cross-checks are the full-size
solves of the Hodge check and the entrywise oracle in the tests.

A Gram side is a direct sum over the connected components of the graph
of its table, in which every face is joined to its boundary faces:
an entry pairs two rows or two columns through a shared stored entry, so
between two components there is no pair to sum and the entry is zero by
structure, not by rounding.  For L_i^up this is the paper's split over the
(i+1)-path-connected components.  So a side of at least ``BLOCK_MIN_ROWS``
rows is solved block by block: the components are labelled from the table
(:func:`hodgelap.core._components`, O(nnz) numpy work per round), every
block is summed straight from the table's entry pairs into the stack of
its size, all blocks of one size go to one stacked ``eigvalsh`` call, and
the spectrum is the union.  This is the one builder of component blocks:
the values are kept per component, in the order of the balance flags of
:func:`hodgelap.core._component_balance`, and the boundary check of
:mod:`hodgelap.theorems` reads them there, so it never solves again a
side that ``spectrum`` solved block by block.  The whole side is never
built, so memory grows with the squared block sizes and the stored
entries, not with the square of the side; a single component is one
block of the full size.
Each block entry sums the same pairs in the same order as the whole side
would, so every block is bit-identical to that block of the whole side.
The threshold is a measured crossover, with BLAS on one thread: on random
sparse 2-complexes the blocked up side of L_1 is as fast as one solve at
about 100 rows (0.34 ms both) and 2.7 times faster at 192 (0.58 ms
against 1.57 ms), while on a side that is one component the labelling
costs about 0.1 ms, over 5% of the solve below about 200 rows.  Below the
threshold, which the verify corpus (70 rows at most) never reaches, the
whole side is built by ``_gram`` and solved at once.

Reduced Betti numbers are computed exactly: the coboundary matrices have
integer entries, and each rank is computed from the boundary-index table
itself, with no floating threshold anywhere and no dense copy of the whole
matrix.  The ranks go bottom-up.  The pivot rows recorded for D_{j-1} are
linearly independent j-faces Q, and ``D_j D_{j-1} = 0`` puts the columns Q
of D_j in the span of its other columns, so they are cleared (zeroed)
before D_j is ranked.  ``exact_rank`` then peels the entries alone in their
row or column, eliminates +/-1 pivots sparsely and hands whatever is left
to fraction-free elimination (see :mod:`hodgelap._kernels`).  Then

    b~_j = dim C^j - rank D_j - rank D_{j-1}.

The zero-multiplicity formulas predict eigenvalue-zero counts from the
cochain dimensions and the reduced Betti numbers alone.  In the augmented
complex the alternating sums must include the j = -1 term
(dim C^{-1} = 1); with that reading both stated forms of the up-count agree
and match the observed kernels, which the suite checks on every fixture:

    zeros(L_i_up)   = dim C^i - sum_{j=-1}^{i} (-1)^{i+j} (dim C^j - b~_j)
                    = dim C^i + sum_{j=1}^{d-i} (-1)^j (dim C^{i+j} - b~_{i+j})
    zeros(L_i_down) = dim C^i - sum_{j=-1}^{i-1} (-1)^{i-1+j} (dim C^j - b~_j)
    zeros(L_i)      = b~_i                               (Hodge theorem)

``bounds_report`` evaluates every applicable spectral bound for the up
operator on the pure (i+1)-dimensional part of the complex: the upper
bounds (i+2 for the normalized scheme, (i+2) * max degree / min weight
otherwise), the trace lower bound trace / #nonzero (the i-face count
/ #nonzero for the normalized scheme, vol_i / (max weight * #nonzero)
otherwise), and the max-degree lower bound
D/d + (i+1)D/(Nd) together with its normalized-scheme specialization
1 + (i+1)/D.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._kernels import exact_rank
from .core import CoboundaryMatrix, SimplicialComplex, _components, _degrees, _entry_pairs
from .errors import DimensionError, NumericError
from .operators import (
    NORMALIZED,
    LaplacianMatrix,
    WeightScheme,
    _gram,
    _weight_vector,
    coboundary_matrix,
    laplacian,
)

DEFAULT_VALUE_TOL = 1e-7
DEFAULT_BOUND_SLACK = 1e-9
# Smallest Gram side solved block by block (see the module docstring).
BLOCK_MIN_ROWS = 200


def _sign(k: int) -> int:
    """(-1)**k as an exact int, valid for negative k."""
    return 1 if k % 2 == 0 else -1


@dataclass(frozen=True)
class Spectrum:
    """Non-decreasing eigenvalue multiset with an explicit zero threshold.

    ``values`` is sorted, so the zeros -- the values at most ``zero_tol`` --
    are a prefix: ``zero_multiplicity`` is its length, found by one binary
    search, and ``nonzero`` is a copy of the rest, without the NaNs that
    sort last (a NaN threshold counts no zeros and keeps no nonzero value,
    as the comparisons read).  Both are computed on first access and kept,
    so ``values`` is not meant to change afterwards.  The default threshold
    of :meth:`from_values` is ``1e-8 * max(1, largest magnitude)``, and the
    largest magnitude is read off the two ends.
    """

    values: np.ndarray
    zero_tol: float

    @classmethod
    def from_values(cls, values, zero_tol: float | None = None) -> "Spectrum":
        vals = np.sort(np.asarray(values, dtype=float))
        if zero_tol is None:
            scale = 1.0
            if vals.size:
                lo, hi = float(vals[0]), float(vals[-1])
                if hi == hi:  # a NaN sorts last and leaves the scale at 1
                    scale = max(1.0, -lo, hi)
            zero_tol = 1e-8 * scale
        return cls(vals, float(zero_tol))

    @functools.cached_property
    def nonzero(self) -> np.ndarray:
        values = self.values
        stop = len(values)
        if stop and values[-1] != values[-1]:
            stop = int(np.searchsorted(values, np.inf, "right"))
        start = self.zero_multiplicity if self.zero_tol == self.zero_tol else stop
        return values[start:stop].copy()

    @functools.cached_property
    def zero_multiplicity(self) -> int:
        if self.zero_tol != self.zero_tol:  # no value is at most a NaN threshold
            return 0
        return int(np.searchsorted(self.values, self.zero_tol, "right"))

    def multiplicity_at(self, x: float, tol: float = DEFAULT_VALUE_TOL) -> int:
        return int(np.sum(np.abs(self.values - x) <= tol))

    def contains(self, x: float, tol: float = DEFAULT_VALUE_TOL) -> bool:
        return self.multiplicity_at(x, tol) > 0

    def __len__(self) -> int:
        return len(self.values)


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each in a stack of them."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric matrix."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc


def _block_eigvalsh(table: CoboundaryMatrix, of: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the ``of`` Gram side of ``table``, one connected block at a time.

    The components are labelled from the table
    (:func:`hodgelap.core._components`), so they come ordered by first row,
    then the columns with no coface; no entry pair joins two of them.  Each
    block is summed straight from the table's entry pairs: the blocks,
    ordered by size and then by component, share one flat buffer, and one
    ``np.bincount`` adds every pair to its block's entry in the order
    ``_gram`` adds it to the whole side, so each block equals that block of
    ``_gram(table, of)`` bit for bit.  The rows of a block keep their
    ascending order.  All blocks of one size are solved by one stacked call.

    Built once per table and side, and kept in ``table._memo`` under
    ``("blocks", of)``: one read-only array of every value, component by
    component (unsorted within each), and the offsets where the components
    after the first begin, so ``np.split(values, cuts)`` gives one array per
    component without keeping one.
    """
    key = ("blocks", of)
    if key in table._memo:
        return table._memo[key]
    _, comp, sizes = np.unique(_components(table, of), return_inverse=True, return_counts=True)
    # Position of every row inside its block.
    order = np.argsort(comp, kind="stable")
    pos = np.empty(len(comp), dtype=np.int64)
    pos[order] = np.arange(len(comp)) - (sizes.cumsum() - sizes)[comp[order]]
    # Offset of every block in the flat buffer, then of every row's line.
    by_size = np.argsort(sizes, kind="stable")
    area = sizes[by_size] ** 2
    offset = np.empty(len(sizes), dtype=np.int64)
    offset[by_size] = area.cumsum() - area
    line = offset[comp] + pos * sizes[comp]
    with np.errstate(over="ignore"):
        left, right, products = _entry_pairs(table, of)
    flat = np.bincount(line[left] + pos[right], weights=products, minlength=int(area.sum()))
    parts = []
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        stop = start + count * size * size
        parts.append(_eigvalsh(flat[start:stop].reshape(count, size, size)).ravel())
        start = stop
    # The values come by block size; put them back in component order.
    values = np.concatenate(parts)[np.repeat(by_size, sizes[by_size]).argsort(kind="stable")]
    values.setflags(write=False)
    table._memo[key] = values, sizes.cumsum()[:-1]
    return table._memo[key]


def _side_eigvalsh(table: CoboundaryMatrix, of: str) -> np.ndarray:
    """Eigenvalues of the ``of`` Gram side of ``table``, solved once per table.

    A side of at least ``BLOCK_MIN_ROWS`` rows is the union of its blocks
    (:func:`_block_eigvalsh`).  A smaller side is built whole and solved at
    once; its values are stored read-only in ``table._memo`` under
    ``("eigvalsh", of)``, and the Gram matrix is not kept.  The values come
    unsorted.
    """
    if (table.n_cols if of == "columns" else table.shape[0]) >= BLOCK_MIN_ROWS:
        return _block_eigvalsh(table, of)[0]
    key = ("eigvalsh", of)
    if key not in table._memo:
        vals = _eigvalsh(_gram(table, of))
        vals.setflags(write=False)
        table._memo[key] = vals
    return table._memo[key]


def _up_side(lap: LaplacianMatrix) -> str:
    """The side of the up term ``B_i`` that :func:`spectrum` solves: its rows when fewer than n."""
    return "rows" if lap.up.shape[0] < lap.n else "columns"


def spectrum(lap: LaplacianMatrix, zero_tol: float | None = None) -> Spectrum:
    """Eigenvalues of a Laplacian, solved term by term on smaller Gram sides.

    Each stored term is solved on its side of size |S_i| = n, or on its
    other side when that is strictly smaller, once per table and side (see
    :func:`_side_eigvalsh`).  Fewer than n values are padded with exact
    zeros; of more than n, the n largest are kept.  Length always equals n,
    and the returned values are a fresh array.
    """
    n, up, down = lap.n, lap.up, lap.down
    parts = []  # the eigenvalues of each stored term on the side solved
    if up is not None:
        parts.append(_side_eigvalsh(up, _up_side(lap)))
    if down is not None:
        parts.append(_side_eigvalsh(down, "columns" if down.shape[1] < n else "rows"))
    vals = np.concatenate(parts) if parts else np.zeros(0)
    if not np.isfinite(vals).all():
        # Finite weights whose ratios overflow a float reach this point.
        raise NumericError("eigensolver produced non-finite eigenvalues")
    if len(vals) > n:
        # The terms' ranges are orthogonal, so at most n values are nonzero.
        vals = np.sort(vals)[len(vals) - n :]
    return Spectrum.from_values(np.concatenate([np.zeros(n - len(vals)), vals]), zero_tol)


# ---------------------------------------------------------------------------
# exact homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers b~_{-1}, b~_0, ..., b~_d and cochain dimensions."""

    reduced: tuple[int, ...]
    cochain_dims: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        if not -1 <= j <= len(self.reduced) - 2:
            return 0
        return self.reduced[j + 1]

    def dim_c(self, j: int) -> int:
        if not -1 <= j <= len(self.cochain_dims) - 2:
            return 0
        return self.cochain_dims[j + 1]

    @property
    def top_dim(self) -> int:
        return len(self.reduced) - 2

    def euler_characteristics(self) -> tuple[int, int]:
        """(sum (-1)^j dim C^j, sum (-1)^j b~_j) over j = -1..d; equal exactly."""
        chi_c = sum(_sign(j) * self.dim_c(j) for j in range(-1, self.top_dim + 1))
        chi_b = sum(_sign(j) * self[j] for j in range(-1, self.top_dim + 1))
        return chi_c, chi_b


def _coboundary_rank(complex_: SimplicialComplex, j: int) -> int:
    """Exact rank of D_j, memoized on the complex with its pivot rows.

    D_{j-1} is ranked first.  Its recorded pivot rows are linearly
    independent j-faces, and ``D_j D_{j-1} = 0`` puts those columns of D_j
    in the span of its other columns, so they are zeroed before D_j is
    ranked.  The pivot rows of D_j are kept read-only under ``("pivots", j)``.
    """
    key = ("rank", j)
    if key not in complex_._memo:
        d = coboundary_matrix(complex_, j)
        if j > -1:
            _coboundary_rank(complex_, j - 1)
            cleared = np.zeros(d.n_cols, dtype=bool)
            cleared[complex_._memo[("pivots", j - 1)]] = True
            values = np.where(cleared[d.index], 0, d.values)
            d = CoboundaryMatrix(d.index, d.n_cols, values)
        pivots: list[int] = []
        complex_._memo[key] = exact_rank(d, pivots) if d.index.size else 0
        rows = np.array(pivots, dtype=np.int64)
        rows.setflags(write=False)
        complex_._memo[("pivots", j)] = rows
    return complex_._memo[key]


def betti(complex_: SimplicialComplex) -> BettiProfile:
    """Reduced Betti numbers from exact integer ranks of the coboundaries."""
    key = "betti"
    if key in complex_._memo:
        return complex_._memo[key]
    d = complex_.dim
    ranks = {j: _coboundary_rank(complex_, j) for j in range(-1, d + 1)}
    ranks[d + 1] = 0
    ranks[-2] = 0
    reduced = tuple(
        complex_.n_faces(j) - ranks[j] - ranks[j - 1] for j in range(-1, d + 1)
    )
    dims = tuple(complex_.n_faces(j) for j in range(-1, d + 1))
    profile = BettiProfile(reduced, dims)
    complex_._memo[key] = profile
    return profile


def predicted_zero_multiplicity_formulas(
    complex_: SimplicialComplex, i: int, profile: BettiProfile | None = None
) -> tuple[int, int]:
    """Both closed forms of the up-operator zero count (they must agree)."""
    p = profile or betti(complex_)
    d = p.top_dim
    a = {j: p.dim_c(j) - p[j] for j in range(-1, d + 1)}
    f1 = p.dim_c(i) - sum(_sign(i + j) * a[j] for j in range(-1, i + 1))
    f2 = p.dim_c(i) + sum(_sign(j) * a[i + j] for j in range(1, d - i + 1))
    return f1, f2


def predicted_zero_multiplicity(
    complex_: SimplicialComplex,
    i: int,
    direction: str,
    profile: BettiProfile | None = None,
) -> int:
    """Zero multiplicity predicted from cochain dimensions and Betti numbers.

    ``up`` evaluates both stated formulas and insists they agree (they do
    exactly when the profile satisfies the Euler identity), raising
    :class:`NumericError` otherwise; ``down`` uses the single stated
    formula; ``full`` is b~_i by the Hodge theorem.
    """
    p = profile or betti(complex_)
    d = p.top_dim
    if not -1 <= i <= d:
        raise DimensionError(f"dimension {i} out of range -1..{d}")
    if direction == "up":
        f1, f2 = predicted_zero_multiplicity_formulas(complex_, i, p)
        if f1 != f2:
            raise NumericError(
                f"zero-count formulas disagree at i={i}: {f1} vs {f2}"
            )
        return f1
    if direction == "down":
        a = {j: p.dim_c(j) - p[j] for j in range(-1, d + 1)}
        return p.dim_c(i) - sum(_sign(i - 1 + j) * a[j] for j in range(-1, i))
    if direction == "full":
        return p[i]
    raise ValueError(f"direction must be up/down/full, got {direction!r}")


# ---------------------------------------------------------------------------
# multiset comparison modulo zeros
# ---------------------------------------------------------------------------


def _nonzero_part(values) -> np.ndarray:
    if isinstance(values, Spectrum):
        return values.nonzero
    return Spectrum.from_values(values).nonzero


def eq_mod_zeros(a, b, tol: float = DEFAULT_VALUE_TOL) -> bool:
    """Multiset equality of the nonzero parts, entrywise after sorting."""
    return multiset_deviation(_nonzero_part(a), _nonzero_part(b)) <= tol


def union_mod_zeros(a, b) -> np.ndarray:
    """Sorted concatenation of the nonzero parts (the multiset union)."""
    return np.sort(np.concatenate([_nonzero_part(a), _nonzero_part(b)]))


def multiset_deviation(a, b) -> float:
    """Max entrywise gap between two sorted multisets; inf on size mismatch."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


def subset_deviation(sub, full, tol: float = DEFAULT_VALUE_TOL) -> float:
    """How far ``sub`` is from embedding into ``full`` with multiplicity.

    Matches each entry of the sorted ``sub`` to the smallest still-unused
    entry of the sorted ``full`` within ``tol`` (optimal for sorted interval
    matching); returns the largest matched gap, or inf when some entry
    cannot be matched.
    """
    sub = np.sort(np.asarray(sub, dtype=float))
    full = np.sort(np.asarray(full, dtype=float))
    if sub.size == 0:
        return 0.0
    if sub.size > full.size:
        return float("inf")
    worst = 0.0
    j = 0
    for x in sub:
        while j < full.size and full[j] < x - tol:
            j += 1
        if j >= full.size or abs(full[j] - x) > tol:
            return float("inf")
        worst = max(worst, abs(full[j] - x))
        j += 1
    return worst


def _interlacing_violation(mu: np.ndarray, lam: np.ndarray, gap: int) -> float:
    """How far the sorted ``lam`` is from ``mu_j <= lam_j <= mu_{j+gap}``.

    The largest of ``mu[j] - lam[j]`` and ``lam[j] - mu[j + gap]`` over every
    j, or 0 when none is positive; an empty ``lam`` reads 0.
    """
    n = len(lam)
    return float(np.maximum(mu[:n] - lam, lam - mu[gap : gap + n]).max(initial=0.0))


# ---------------------------------------------------------------------------
# spectral bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Every applicable bound on the up spectrum, with observed values."""

    i: int
    scheme_kind: str
    applicable: bool
    lambda_max: float = float("nan")
    upper_bound: float = float("nan")
    trace_lower: float | None = None
    degree_lower: float | None = None
    normalized_degree_lower: float | None = None
    max_degree: float = float("nan")
    vol_i: float = float("nan")
    n_nonzero: int = 0
    slack: float = DEFAULT_BOUND_SLACK
    flags: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        return self.applicable and all(self.flags.values())


def bounds_report(
    complex_: SimplicialComplex,
    i: int,
    scheme: WeightScheme,
    slack: float = DEFAULT_BOUND_SLACK,
) -> BoundsReport:
    """Evaluate the upper and lower bounds for the i-up spectrum.

    The statements concern pure (i+1)-dimensional complexes (the up
    operator only sees the (i+1)-skeleton), so the complex is restricted to
    the closure of its (i+1)-faces first; weights are recomputed there for
    the derived schemes and restricted for custom maps.
    """
    if complex_.n_faces(i + 1) == 0:
        return BoundsReport(i, scheme.kind, applicable=False)
    part = complex_.pure_part(i + 1)
    # On a pure complex part is complex_ itself, and this is the B_i and the
    # solved side that the Hodge check memoized on it.
    lap = laplacian(part, i, "up", scheme)
    spec = spectrum(lap)
    w_i = lap.weights
    lam_max = float(spec.values[-1]) if len(spec) else 0.0

    degrees = _degrees(part, i, _weight_vector(part, scheme, i + 1))
    coface_counts = _degrees(part, i)
    big_d = float(degrees.max())
    vol_i = float(degrees.sum())

    # Combinatorial weights are all 1.0, so the general bounds divide by 1.0
    # exactly and are the combinatorial ones.
    if scheme.kind == NORMALIZED:
        upper = float(i + 2)
    else:
        upper = (i + 2) * big_d / float(w_i.min())

    # On the pure (i+1)-complex D_{i+1} = 0, so the number of nonzero
    # eigenvalues, dim C^{i+1} - b~_{i+1}, is rank D_i.  D_i of the pure
    # part is D_i of the whole complex minus the zero columns of the i-faces
    # that have no coface, so it has the same rank, memoized on complex_.
    n_nonzero = _coboundary_rank(complex_, i)
    trace_lower = degree_lower = norm_lower = None
    if n_nonzero > 0:
        if scheme.kind == NORMALIZED:
            trace_lower = part.n_faces(i) / n_nonzero
        else:
            trace_lower = vol_i / (float(w_i.max()) * n_nonzero)
        at_max = np.abs(degrees - big_d) <= 1e-9 * max(1.0, big_d)
        n_min = int(coface_counts[at_max].min())
        d_w = float(w_i.max())
        degree_lower = big_d / d_w + (i + 1) * big_d / (n_min * d_w)
        if scheme.kind == NORMALIZED:
            norm_lower = 1.0 + (i + 1) / big_d

    flags = {"upper": lam_max <= upper + slack}
    for name, bound in (
        ("trace_lower", trace_lower),
        ("degree_lower", degree_lower),
        ("normalized_degree_lower", norm_lower),
    ):
        if bound is not None:
            flags[name] = bound <= lam_max + slack
    return BoundsReport(
        i,
        scheme.kind,
        True,
        lam_max,
        upper,
        trace_lower,
        degree_lower,
        norm_lower,
        big_d,
        vol_i,
        n_nonzero,
        slack,
        flags,
    )
