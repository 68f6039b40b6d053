"""Executable checks for the spectral theorems, with structured reports.

Every check returns a :class:`CheckReport` holding one row per asserted
quantity: name, expected, observed, a numeric deviation and the tolerance;
the pass flag of a row is exactly ``deviation <= tol``, and the report
passes when every row does.  Boolean equivalences are encoded as deviation
0/1 with tolerance 0; multiset identities use the max entrywise gap after
sorting (infinite on size mismatch), so a report can always be re-judged
from its own recorded numbers.

Checks never trust the generators that produced their inputs: hypotheses
(regularity, orientability, path-connectivity, motif validity) are
re-derived from the complex itself, and a check whose hypotheses fail
reports not-applicable rather than failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Face,
    SimplicialComplex,
    _chromatic_bounds,
    _component_balance,
    dual_graph,
    is_regular,
    motif as make_motif,
    permutation_parity,
    signed_balance,
)
from .errors import ResourceError
from .constructions import (
    FamilySpec,
    cartesian_product,
    cone,
    duplicate_motif,
    join,
    product_tensor_weight_map,
    product_weight_map,
    reference_spectrum,
    wedge,
)
from .operators import (
    COMBINATORIAL,
    NORMALIZED,
    LaplacianMatrix,
    WeightScheme,
    _weight_vector,
    laplacian,
    normalized_weight_map,
)
from .spectra import (
    DEFAULT_BOUND_SLACK,
    DEFAULT_VALUE_TOL,
    Spectrum,
    betti,
    bounds_report,
    multiset_deviation,
    predicted_zero_multiplicity,
    predicted_zero_multiplicity_formulas,
    spectrum,
    subset_deviation,
    union_mod_zeros,
    _block_eigvalsh,
    _eigh,
    _eigvalsh,
    _interlacing_violation,
    _nonzero_part,
    _up_side,
)


@dataclass(frozen=True, slots=True)
class CheckItem:
    name: str
    expected: object
    observed: object
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol

    def __reduce__(self):
        # Pickled as a constructor call: the state methods dataclasses gives
        # a frozen class with slots call fields() per instance, which made
        # the corpus walk's pickles about twice as slow to write and read.
        return CheckItem, (self.name, self.expected, self.observed, self.deviation, self.tol)


@dataclass(slots=True)
class CheckReport:
    """Self-contained outcome of one theorem check on one input."""

    theorem_id: str
    inputs: dict
    items: list[CheckItem] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    applicable: bool = True
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.applicable) or all(item.passed for item in self.items)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.passed else "fail"

    def add(self, name, expected, observed, deviation, tol):
        self.items.append(CheckItem(name, expected, observed, float(deviation), float(tol)))

    def add_bool(self, name, expected: bool, observed: bool):
        self.add(name, bool(expected), bool(observed), 0.0 if expected == observed else 1.0, 0.0)

    def input_hash(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, default=str)
        return hashlib.sha1(blob.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        status = self.status  # "fail" exactly when the report does not pass
        return {
            "theorem_id": self.theorem_id,
            "inputs": self.inputs,
            "expected": [item.expected for item in self.items],
            "observed": [item.observed for item in self.items],
            "tol": [item.tol for item in self.items],
            "pass": status != "fail",
            "status": status,
            "checks": [
                {
                    "name": item.name,
                    "expected": item.expected,
                    "observed": item.observed,
                    "deviation": item.deviation,
                    "tol": item.tol,
                    "pass": item.passed,
                }
                for item in self.items
            ],
            "certificates": self.certificates,
            "notes": self.notes,
        }


def _json_ready(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def deterministic_custom_scheme(complex_: SimplicialComplex, seed: int = 0) -> WeightScheme:
    """A reproducible positive custom weight map (used as the third scheme).

    Its seed uses ``hash(complex_)``, which 64-bit CPython computes for int
    tuples without the ``PYTHONHASHSEED`` salt.  The scheme is memoized on
    the complex per seed, so every check of one complex gets the same map,
    and with it the same memoized weighted tables.
    """
    key = ("custom-scheme", seed)
    if key not in complex_._memo:
        rng = np.random.default_rng(seed + (hash(complex_) & 0xFFFF))
        faces = complex_.all_faces()
        draws = rng.uniform(0.5, 2.0, len(faces))
        complex_._memo[key] = WeightScheme.from_map(dict(zip(faces, draws.tolist())))
    return complex_._memo[key]


def _scheme_for(complex_: SimplicialComplex, kind: str, seed: int = 0) -> WeightScheme:
    if kind == "custom":
        return deterministic_custom_scheme(complex_, seed)
    return WeightScheme(kind)


def _eigenpairs(complex_: SimplicialComplex, i: int, scheme: WeightScheme):
    """(eigenvalues, eigenvectors of the operator itself) for the up Laplacian."""
    lap = laplacian(complex_, i, "up", scheme)
    vals, vecs = _eigh(lap.symmetric)
    inv_sqrt = 1.0 / np.sqrt(lap.weights)
    return vals, vecs * inv_sqrt[:, None]


def _full_size_spectrum(lap: LaplacianMatrix) -> Spectrum:
    """Spectrum of ``lap`` from one n x n solve of its symmetric form.

    :func:`spectrum` assembles a full operator's spectrum from its up and
    down terms, so checking it against those terms would hold by
    construction; the Hodge checks observe the full operator through this.
    """
    return Spectrum.from_values(_eigvalsh(lap.symmetric))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def check_family(
    spec: FamilySpec,
    complex_: SimplicialComplex,
    tol: float = DEFAULT_VALUE_TOL,
) -> CheckReport:
    """Computed spectrum of a generated family against its closed form.

    ``complex_`` must equal ``generate(spec)``; the corpus walk passes its
    corpus complex, so the check reads the tables built there.
    """
    report = CheckReport(
        "family-closed-form-spectrum",
        {"family": spec.family, "n": spec.n, "i": spec.i, "m": spec.m},
    )
    scheme = WeightScheme.normalized()
    if spec.family == "simplex":
        got = spectrum(laplacian(complex_, spec.i, "up", scheme))
    else:
        fam_i = 2 if spec.family == "moebius-circuit" else spec.i
        got = spectrum(laplacian(complex_, fam_i, "down", scheme))
    ref = reference_spectrum(spec)
    report.add(
        "spectrum-matches-closed-form",
        _json_ready(ref.values),
        _json_ready(got.values),
        multiset_deviation(got.values, ref.values),
        tol,
    )
    if spec.family == "moebius-circuit":
        report.add_bool(
            "non-orientable", True, not signed_balance(complex_, 2, "antiparallel").balanced
        )
    if spec.family == "circuit":
        report.add_bool(
            "orientable", True, signed_balance(complex_, spec.i, "antiparallel").balanced
        )
    return report


# ---------------------------------------------------------------------------
# kernel counting and spectral plumbing identities
# ---------------------------------------------------------------------------


def check_hodge_and_duality(
    complex_: SimplicialComplex,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
    seed: int = 0,
) -> CheckReport:
    """Zero-count formulas, the Hodge kernel identity, and the up/down relations.

    For every dimension and every scheme: the zero multiplicities of the up
    and down spectra equal the counting formulas (both stated up-forms must
    agree), the full Laplacian has exactly b~_i zeros, the up spectrum at i
    equals the down spectrum at i+1 modulo zeros, the full spectrum is the
    union of up and down modulo zeros, and every eigenvalue is >= -1e-9.
    """
    report = CheckReport("hodge-duality-zero-counts", {"complex": name})
    profile = betti(complex_)
    chi_c, chi_b = profile.euler_characteristics()
    report.add("euler-identity", chi_c, chi_b, abs(chi_c - chi_b), 0)
    dims = range(-1, complex_.dim + 1)
    # The predicted zero counts depend on the complex alone, not the scheme.
    predicted = {
        i: (
            *predicted_zero_multiplicity_formulas(complex_, i, profile),
            predicted_zero_multiplicity(complex_, i, "down", profile),
        )
        for i in dims
    }
    for kind in ("combinatorial", "normalized", "custom"):
        scheme = _scheme_for(complex_, kind, seed)
        # L_j^up and L_{j+1}^down hold the one memoized B_j, and share one
        # solve of a Gram side whenever both pick the same side (f_j != f_{j+1}).
        spectra = {}
        for i in dims:
            spectra[(i, "up")] = spectrum(laplacian(complex_, i, "up", scheme))
            spectra[(i, "down")] = spectrum(laplacian(complex_, i, "down", scheme))
            spectra[(i, "full")] = _full_size_spectrum(laplacian(complex_, i, "full", scheme))
        min_eig = min(float(s.values.min()) for s in spectra.values() if len(s))
        report.add(f"{kind}/psd", ">= -1e-9", min_eig, max(0.0, -min_eig), 1e-9)
        for i in dims:
            up, down, full = (spectra[(i, d)] for d in ("up", "down", "full"))
            f1, f2, pred_down = predicted[i]
            report.add(f"{kind}/i={i}/thm-zero-up-formulas-agree", f1, f2, abs(f1 - f2), 0)
            report.add(
                f"{kind}/i={i}/zeros-up",
                f1,
                up.zero_multiplicity,
                abs(up.zero_multiplicity - f1),
                0,
            )
            report.add(
                f"{kind}/i={i}/zeros-down",
                pred_down,
                down.zero_multiplicity,
                abs(down.zero_multiplicity - pred_down),
                0,
            )
            report.add(
                f"{kind}/i={i}/hodge-zeros-full",
                profile[i],
                full.zero_multiplicity,
                abs(full.zero_multiplicity - profile[i]),
                0,
            )
            if i + 1 <= complex_.dim:
                report.add(
                    f"{kind}/i={i}/up-eq-down-next",
                    "s(L_i^up) =o= s(L_{i+1}^down)",
                    None,
                    multiset_deviation(up.nonzero, spectra[(i + 1, "down")].nonzero),
                    tol,
                )
            report.add(
                f"{kind}/i={i}/full-eq-union",
                "s(L_i) =o= s(up) u s(down)",
                None,
                multiset_deviation(full.nonzero, union_mod_zeros(up, down)),
                tol,
            )
    return report


def check_bounds(
    complex_: SimplicialComplex,
    i: int,
    scheme_kind: str,
    name: str = "",
    seed: int = 0,
) -> CheckReport:
    """Upper, trace-lower and degree-lower bounds at one (i, scheme)."""
    report = CheckReport(
        "spectral-bounds", {"complex": name, "i": i, "scheme": scheme_kind}
    )
    rep = bounds_report(complex_, i, _scheme_for(complex_, scheme_kind, seed))
    if not rep.applicable:
        report.applicable = False
        report.notes.append("no (i+1)-faces; up operator is the zero map")
        return report
    report.add(
        "upper-bound",
        f"lambda_max <= {rep.upper_bound}",
        rep.lambda_max,
        max(0.0, rep.lambda_max - rep.upper_bound),
        DEFAULT_BOUND_SLACK,
    )
    for label, bound in (
        ("trace-lower", rep.trace_lower),
        ("degree-lower", rep.degree_lower),
        ("normalized-degree-lower", rep.normalized_degree_lower),
    ):
        if bound is None:
            continue
        report.add(
            label,
            f"lambda_max >= {bound}",
            rep.lambda_max,
            max(0.0, bound - rep.lambda_max),
            DEFAULT_BOUND_SLACK,
        )
    report.certificates["bounds"] = {
        "lambda_max": rep.lambda_max,
        "upper": rep.upper_bound,
        "trace_lower": rep.trace_lower,
        "degree_lower": rep.degree_lower,
        "normalized_degree_lower": rep.normalized_degree_lower,
        "max_degree": rep.max_degree,
        "vol_i": rep.vol_i,
        "n_nonzero": rep.n_nonzero,
    }
    return report


# ---------------------------------------------------------------------------
# wedges
# ---------------------------------------------------------------------------


def check_wedge(
    k1: SimplicialComplex,
    k2: SimplicialComplex,
    f1: Face,
    f2: Face,
    i: int,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
    slack: float = DEFAULT_BOUND_SLACK,
) -> CheckReport:
    """Wedge spectral union (k < i) or eigenvalue preservation and
    interlacing (k = i) for the normalized up operator."""
    f1, f2 = tuple(sorted(f1)), tuple(sorted(f2))
    k = len(f1) - 1
    report = CheckReport(
        "wedge-spectrum", {"complex": name, "i": i, "k": k, "f1": list(f1), "f2": list(f2)}
    )
    wedged, relabel = wedge(k1, k2, f1, f2)
    scheme = WeightScheme.normalized()
    if k < i:
        for kind in (NORMALIZED, COMBINATORIAL):
            sch = WeightScheme(kind)
            sw = spectrum(laplacian(wedged, i, "up", sch))
            if kind == NORMALIZED:
                report.certificates["wedge_spectrum"] = _json_ready(sw.values)
            s1 = spectrum(laplacian(k1, i, "up", sch))
            s2 = spectrum(laplacian(k2, i, "up", sch))
            report.add(
                f"{kind}/union-mod-zeros",
                "s(wedge) =o= s(K1) u s(K2)",
                None,
                multiset_deviation(sw.nonzero, union_mod_zeros(s1, s2)),
                tol,
            )
        return report
    if k != i:
        report.applicable = False
        report.notes.append("wedge theorems cover k < i and k = i only")
        return report

    vals1, vecs1 = _eigenpairs(k1, i, scheme)
    vals2, vecs2 = _eigenpairs(k2, i, scheme)
    idx1, idx2 = k1.index(f1), k2.index(f2)
    wedge_spec = spectrum(laplacian(wedged, i, "up", scheme))

    def groups(vals, vecs, idx):
        out = []
        start = 0
        for stop in range(1, len(vals) + 1):
            if stop == len(vals) or vals[stop] - vals[start] > 1e-9:
                block = vecs[:, start:stop]
                col_at_face = np.abs(block[idx, :])
                norms = np.linalg.norm(block, axis=0)
                can_vanish = stop - start >= 2 or bool(
                    (col_at_face <= tol * norms).any()
                )
                has_nonvanish = bool((col_at_face > tol * norms).any())
                out.append((float(vals[start:stop].mean()), can_vanish, has_nonvanish))
                start = stop
        return out

    g1, g2 = groups(vals1, vecs1, idx1), groups(vals2, vecs2, idx2)
    preserved = []
    for lam, vanish, nonvan in g1:
        mate = next((g for g in g2 if abs(g[0] - lam) <= tol), None)
        if vanish or (mate is not None and nonvan and mate[2]):
            preserved.append(lam)
    for lam, vanish, _ in g2:
        if vanish and all(abs(lam - p) > tol for p in preserved):
            preserved.append(lam)
    for lam in sorted(preserved):
        # Name a zero eigenvalue 0, not its rounding noise of either sign.
        shown = 0.0 if abs(lam) <= tol else lam
        report.add(
            f"preserved-eigenvalue/{shown:.9g}",
            lam,
            None,
            subset_deviation([lam], wedge_spec.values, tol),
            tol,
        )

    union_vals = np.sort(np.concatenate([vals1, vals2]))
    report.add(
        "interlacing",
        "mu_j <= lambda_j <= mu_{j+1}",
        None,
        _interlacing_violation(union_vals, wedge_spec.values, 1),
        slack,
    )
    report.certificates["preserved"] = preserved
    return report


# ---------------------------------------------------------------------------
# joins, cones, products
# ---------------------------------------------------------------------------


def check_join(
    k1: SimplicialComplex,
    k2: SimplicialComplex,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
) -> CheckReport:
    """Join spectral identities.

    Normalized form: with product weights w(F1 * F2) = w1(F1) w2(F2) the
    top-dimension down spectrum of the join equals the pairwise-sum multiset
    of the factors' top down spectra (zeros retained) modulo zeros.
    Combinatorial form: at every order i the full Laplacian spectrum of the
    join is the union over splittings i1 + i2 + 1 = i of pairwise sums.
    """
    report = CheckReport("join-spectral-sum", {"complex": name})
    joined, relabel = join(k1, k2)
    shift = max(k1.vertices(), default=-1) + 1
    d1, d2 = k1.dim, k2.dim
    top = d1 + d2 + 1

    w1 = normalized_weight_map(k1)
    w2 = normalized_weight_map(k2)
    prod_scheme = WeightScheme.from_map(product_weight_map(joined, shift, w1, w2))
    left = spectrum(laplacian(joined, top, "down", prod_scheme))
    s1 = spectrum(laplacian(k1, d1, "down", WeightScheme.normalized()))
    s2 = spectrum(laplacian(k2, d2, "down", WeightScheme.normalized()))
    sums = np.sort(np.add.outer(s1.values, s2.values).ravel())
    report.add(
        "normalized/down-top-pairwise-sums",
        "s(down_top(K1*K2)) =o= {l+m}",
        None,
        multiset_deviation(left.nonzero, _nonzero_part(sums)),
        tol,
    )

    comb = WeightScheme.combinatorial()
    part_spectra_1 = {
        j: spectrum(laplacian(k1, j, "full", comb)).values for j in range(-1, d1 + 1)
    }
    part_spectra_2 = {
        j: spectrum(laplacian(k2, j, "full", comb)).values for j in range(-1, d2 + 1)
    }
    for i in range(-1, joined.dim + 1):
        pieces = []
        for i1 in range(-1, d1 + 1):
            i2 = i - 1 - i1
            if -1 <= i2 <= d2:
                pieces.append(
                    np.add.outer(part_spectra_1[i1], part_spectra_2[i2]).ravel()
                )
        target = np.sort(np.concatenate(pieces)) if pieces else np.array([])
        got = spectrum(laplacian(joined, i, "full", comb))
        report.add(
            f"combinatorial/i={i}/pairwise-sums-over-splittings",
            "s(L_i(K1*K2)) =o= U {l+m}",
            None,
            multiset_deviation(got.nonzero, _nonzero_part(target)),
            tol,
        )
    return report


def check_cone(
    k: SimplicialComplex, name: str = "", tol: float = DEFAULT_VALUE_TOL
) -> CheckReport:
    """Cone corollary: s(up_d(v*K)) =o= {1 + l} over the full down spectrum."""
    report = CheckReport("cone-shift-by-one", {"complex": name})
    coned, apex = cone(k)
    d = k.dim
    base = spectrum(laplacian(k, d, "down", WeightScheme.normalized()))
    shifted = np.sort(base.values + 1.0)
    up_side = spectrum(laplacian(coned, d, "up", WeightScheme.normalized()))
    report.add(
        "up-form",
        "s(up_d(v*K)) =o= {1+l}",
        None,
        multiset_deviation(up_side.nonzero, _nonzero_part(shifted)),
        tol,
    )
    down_side = spectrum(laplacian(coned, d + 1, "down", WeightScheme.normalized()))
    report.add(
        "down-form",
        "s(down_{d+1}(v*K)) =o= {1+l}",
        None,
        multiset_deviation(down_side.nonzero, _nonzero_part(shifted)),
        tol,
    )
    report.certificates["apex"] = apex
    return report


def check_graph_product(
    g1: SimplicialComplex,
    g2: SimplicialComplex,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
) -> CheckReport:
    """Direct product of graphs: s(up_0) =o= {l/2 + m/2} under tensor weights."""
    report = CheckReport("graph-product-spectral-sum", {"complex": name})
    prod, pair_id = cartesian_product(g1, g2)
    w1 = normalized_weight_map(g1)
    w2 = normalized_weight_map(g2)
    wmap = product_tensor_weight_map(prod, pair_id, g1, g2, w1, w2)
    got = spectrum(laplacian(prod, 0, "up", WeightScheme.from_map(wmap)))
    s1 = spectrum(laplacian(g1, 0, "up", WeightScheme.normalized()))
    s2 = spectrum(laplacian(g2, 0, "up", WeightScheme.normalized()))
    target = np.sort(0.5 * np.add.outer(s1.values, s2.values).ravel())
    report.add(
        "pairwise-half-sums",
        "s(up_0(G1xG2)) =o= {l/2 + m/2}",
        None,
        multiset_deviation(got.nonzero, _nonzero_part(target)),
        tol,
    )
    return report


# ---------------------------------------------------------------------------
# motif duplication
# ---------------------------------------------------------------------------


def check_duplication(
    k: SimplicialComplex,
    motif_vertices,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
    slack: float = DEFAULT_BOUND_SLACK,
) -> CheckReport:
    """Duplication theorem with explicit antisymmetric eigenfunctions.

    The eigenvalues of the up operator of the closed star restricted to the
    star's i-faces all appear in the duplicated complex's spectrum; each
    candidate eigenfunction (f on the star, -f transported onto the primed
    star, 0 elsewhere) is built explicitly and its residual measured, and
    the restricted eigenvalues interlace those of the closed star.
    """
    sig = make_motif(k, motif_vertices)
    i = sig.link_dim
    report = CheckReport(
        "motif-duplication",
        {"complex": name, "motif": list(sig.vertices), "i": i},
    )
    dup, primed = duplicate_motif(k, sig)
    closed_star = sig.closed_star
    scheme = WeightScheme.normalized()

    lap_cs = laplacian(closed_star, i, "up", scheme)
    star_ifaces = sorted(f for f in sig.star if len(f) - 1 == i)
    sel = np.array([closed_star.index(f) for f in star_ifaces], dtype=int)
    sub = lap_cs.symmetric[np.ix_(sel, sel)]
    lam_restricted, u_restricted = _eigh(sub)

    lap_dup = laplacian(dup, i, "up", scheme)
    dup_spec = spectrum(lap_dup)
    report.add(
        "restricted-eigenvalues-appear",
        _json_ready(lam_restricted),
        None,
        subset_deviation(lam_restricted, dup_spec.values, tol),
        tol,
    )

    # Each star face's row in the duplicate, and its primed image's row and sign.
    images = [[primed.get(v, v) for v in face] for face in star_ifaces]
    rows = [dup.index(face) for face in star_ifaces]
    image_rows = [dup.index(tuple(sorted(image))) for image in images]
    parities = np.array([permutation_parity(image) for image in images])
    # One candidate per row of g: f on the star, -f (signed) on its image.
    f = (u_restricted / np.sqrt(lap_cs.weights[sel])[:, None]).T
    g = np.zeros((len(lam_restricted), dup.n_faces(i)))
    g[:, rows] = f
    g[:, image_rows] -= parities * f
    l_dup = lap_dup.matrix
    worst_residual = 0.0
    for lam, g_row in zip(lam_restricted, g):
        residual = np.linalg.norm(l_dup @ g_row - lam * g_row)
        worst_residual = max(worst_residual, residual / np.linalg.norm(g_row))
    report.add("antisymmetric-eigenfunction-residual", 0.0, worst_residual, worst_residual, tol)

    mu = _eigvalsh(lap_cs.symmetric)
    gap = sig.link.n_faces(i)
    worst = _interlacing_violation(mu, lam_restricted, gap)
    report.add("interlacing", "mu_j <= lambda_j <= mu_{j+|S_i(lk)|}", None, worst, slack)
    report.certificates.update(
        {"link_dim": i, "n_star_ifaces": len(star_ifaces), "link_i_faces": gap}
    )
    return report


# ---------------------------------------------------------------------------
# boundary eigenvalues (i+2, chromatic, vertex duplication)
# ---------------------------------------------------------------------------


def _component_top_eigenvalue_present(
    complex_: SimplicialComplex, i: int, tol: float
) -> tuple[list[tuple[bool, bool]], bool, Spectrum]:
    """Per (i+1)-path component: (parallel-balanced, i+2 in the component's block).

    Also returns whether i+2 is in the whole normalized up spectrum, and
    that spectrum.  One labelling of the signed double cover of the table
    ``D_i`` yields the balance of every component, ordered by its first
    face (:func:`~hodgelap.core._component_balance`); no subcomplex is
    built.  No entry pair of ``B_i`` joins two components, so the side of
    the up term that :func:`spectrum` solves is a direct sum of one block
    per component.
    The blocks come from the one builder in :mod:`hodgelap.spectra`, in
    the same order, and a side it solved block by block for the spectrum
    is read, not solved again; nothing is solved here.  A block holds i+2
    when one of its values lies within ``tol`` of it, as
    :meth:`Spectrum.contains` reads it.  A lone component's block holds
    every nonzero eigenvalue of the side, and i+2 >= 2 is never a zero, so
    with one component the whole spectrum answers.
    """
    lap = laplacian(complex_, i, "up", WeightScheme.normalized())
    spec = spectrum(lap)
    present = spec.contains(i + 2, tol)
    if lap.up is None:
        return [], present, spec
    balance = _component_balance(complex_, i + 1)
    held = [present]
    if len(balance) > 1:
        values, cuts = _block_eigvalsh(lap.up, _up_side(lap))
        held = np.logical_or.reduceat(np.abs(values - (i + 2)) <= tol, np.r_[0, cuts]).tolist()
    return list(zip(balance, held)), present, spec


def _chromatic_outcome(complex_: SimplicialComplex) -> tuple[int | None, str | None]:
    """The chromatic number of the 1-skeleton, or a note on why it is not needed.

    The condition chi = i+2 needs (i+1)-faces, so i+2 <= dim+1, while a
    dim-face is a (dim+1)-clique, so chi >= dim+1: it can hold only for
    chi = dim+1.  So :func:`~hodgelap.core._chromatic_bounds` searches only
    when its lower bound is dim+1.  When a larger clique leaves the bounds
    apart, chi is not needed: the note names both bounds, and the
    condition is not triggered at any i.  Decided once per complex, since
    every i asks the same question.  A spent budget is like a hypothesis
    that fails: the condition is left undecided, and the rest of the
    report stands.
    """
    key = "chromatic"
    if key not in complex_._memo:
        ceiling = complex_.dim + 1
        try:
            lower, upper = _chromatic_bounds(complex_, ceiling)
        except ResourceError as exc:
            complex_._memo[key] = (None, f"chromatic condition not decided: {exc}")
        else:
            note = f"chromatic condition not triggered ({lower} <= chi <= {upper}, above dim+1 = {ceiling})"
            complex_._memo[key] = (upper, None) if lower == upper else (None, note)
    return complex_._memo[key]


def check_boundary_eigenvalue(
    complex_: SimplicialComplex,
    i: int,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
    duplication_fixtures: bool = False,
) -> CheckReport:
    """The three characterizations of boundary integer eigenvalues.

    (a) i+2 lies in the normalized up spectrum iff some (i+1)-path
    component of the signed down dual is parallel-balanced -- asserted in
    both directions, per component and for the whole complex.
    (b) If the chromatic number of the 1-skeleton is exactly i+2 (and
    (i+1)-faces exist), then i+2 is in the spectrum.  A dim-face is a
    (dim+1)-clique, so chi >= dim+1 >= i+2: the condition can hold only
    for chi = dim+1, and a greedy clique past dim+1 rules it out without a
    search (:func:`_chromatic_outcome`).
    (c) Duplicating a single-vertex i-motif whose closed star is
    parallel-balanced at dimension i+1 puts i+1 into the duplicated
    complex's spectrum.  Checked only with ``duplication_fixtures``: it
    builds and solves one duplicated complex per vertex, which takes
    minutes on a complex of a thousand vertices.
    """
    report = CheckReport("boundary-eigenvalue-i+2", {"complex": name, "i": i})
    per_comp, present_whole, _ = _component_top_eigenvalue_present(complex_, i, tol)
    any_balanced = any(b for b, _ in per_comp)
    report.add_bool("balance-iff-i+2-present", any_balanced, present_whole)
    for c, (balanced, present) in enumerate(per_comp):
        report.add_bool(f"component-{c}/balance-iff-i+2", balanced, present)
    report.certificates["component_balance"] = [b for b, _ in per_comp]

    chi, note = _chromatic_outcome(complex_)
    if note:
        report.notes.append(note)
    report.certificates["chromatic_number"] = chi
    if chi == i + 2 and complex_.n_faces(i + 1) > 0:
        report.add_bool("chromatic-number-forces-i+2", True, present_whole)
    elif chi is not None:
        report.notes.append(
            f"chromatic condition not triggered (chi={chi}, "
            f"n_{i + 1}-faces={complex_.n_faces(i + 1)}); the implication is one-way"
        )

    if duplication_fixtures:
        for v in complex_.vertices():
            sig = make_motif(complex_, (v,))
            if sig.link_dim != i:
                continue
            closed_star = sig.closed_star
            if closed_star.n_faces(i + 1) == 0:
                continue
            if not signed_balance(closed_star, i + 1, "parallel").balanced:
                report.notes.append(f"vertex {v}: star fails the balance precondition")
                continue
            dup, _ = duplicate_motif(complex_, sig)
            dup_spec = spectrum(laplacian(dup, i, "up", WeightScheme.normalized()))
            report.add(
                f"vertex-{v}/duplication-produces-i+1",
                float(i + 1),
                None,
                subset_deviation([float(i + 1)], dup_spec.values, tol),
                tol,
            )
    return report


# ---------------------------------------------------------------------------
# regular complexes and dual graphs
# ---------------------------------------------------------------------------


def check_regular_dual(
    complex_: SimplicialComplex,
    i: int,
    name: str = "",
    tol: float = DEFAULT_VALUE_TOL,
) -> CheckReport:
    """Spectral relations between a regular complex and its dual graphs.

    On the pure (i+1)-part: for an orientable i-regular complex of degree
    r = 2 the (i+1)-down spectrum is (i+2)/2 times the dual graph's
    normalized spectrum; for degree r = 1 it is constantly i+2; when i+2 is
    in the spectrum (read, per the theorem's own proof, as parallel balance
    of the signed dual structure) the affine reversed relation holds; and
    an orientable complex containing i+2 has its spectrum symmetric about
    (i+2)/2.  Independently of regularity, when i+2 is present, eigenvalue
    1 appears in the i-up spectrum iff it appears in the normalized
    spectrum of the up dual graph, with equal multiplicities.

    Two labellings of the signed double cover of the part's table ``D_i``
    decide the hypotheses: the antiparallel one orientability, and the
    parallel one (:func:`~hodgelap.core._component_balance`) both the
    (i+1)-path components, so connectivity, and parallel balance, which
    holds when every component is balanced.  The down dual graph and its
    normalized spectrum are built only for a connected complex of degree
    r != 1 that is orientable or balanced, the only case that reads them;
    the 6-regular 33 x 33 torus at i = 0 is neither, so its report solves
    no dual spectrum.
    """
    report = CheckReport("regular-dual-spectra", {"complex": name, "i": i})
    if complex_.n_faces(i + 1) == 0:
        report.applicable = False
        report.notes.append("no (i+1)-faces")
        return report
    part = complex_.pure_part(i + 1)
    scheme = WeightScheme.normalized()
    regular, r_or_witness = is_regular(part, i, _weight_vector(part, scheme, i + 1))
    lam = spectrum(laplacian(part, i + 1, "down", scheme)).values
    orientable = signed_balance(part, i + 1, "antiparallel").balanced
    balance = _component_balance(part, i + 1)
    parallel = all(balance)
    connected = len(balance) == 1

    if regular:
        r = float(r_or_witness)
        report.certificates["degree"] = r
        if abs(r - 1.0) <= 1e-9:
            report.add(
                "r=1/constant-spectrum",
                float(i + 2),
                _json_ready(lam),
                float(np.abs(lam - (i + 2)).max()),
                tol,
            )
        elif connected and part.n_faces(i + 1) > 1 and (orientable or parallel):
            dual = dual_graph(part, i + 1, "down").to_complex()
            mu = spectrum(laplacian(dual, 0, "up", scheme)).values
            if orientable:
                report.add(
                    "orientable-r=2/scaled-dual-spectrum",
                    "lambda_k = (i+2)/2 * mu_k",
                    None,
                    float(np.abs(lam - (i + 2) / 2.0 * mu).max()),
                    tol,
                )
            if parallel:
                coef = (r - 1.0) * (i + 2) / r
                predicted = (i + 2) - coef * mu[::-1]
                report.add(
                    "i+2-present/affine-reversed-dual-spectrum",
                    "lambda_k = i+2 - (r-1)(i+2)/r * mu_{n-k}",
                    None,
                    float(np.abs(lam - np.sort(predicted)).max()),
                    tol,
                )
                report.notes.append(
                    "hypothesis 'i+2 in spectrum' evaluated as parallel balance "
                    "of the signed dual structure"
                )
            if orientable and parallel:
                reflected = np.sort((i + 2) - lam)
                report.add(
                    "symmetry-about-half",
                    "s reflected about (i+2)/2 equals s",
                    None,
                    multiset_deviation(lam, reflected),
                    tol,
                )

    up_spec = spectrum(laplacian(part, i, "up", scheme))
    if up_spec.contains(i + 2, tol):
        updual = dual_graph(part, i, "up").to_complex()
        dual_spec = spectrum(laplacian(updual, 0, "up", scheme))
        m_k = up_spec.multiplicity_at(1.0, tol)
        m_g = dual_spec.multiplicity_at(1.0, tol)
        report.add_bool("eigenvalue-1-iff-dual", m_g > 0, m_k > 0)
        report.add("eigenvalue-1-multiplicity", m_g, m_k, abs(m_k - m_g), 0)
    elif not report.items:
        report.applicable = False
        report.notes.append(
            "hypotheses unmet: "
            + ("not i-regular; " if not regular else "")
            + ("not (i+1)-path connected; " if not connected else "")
            + "and i+2 absent from the up spectrum"
        )
    return report
