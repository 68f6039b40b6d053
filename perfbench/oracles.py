"""Correctness oracles that do not call the code under test.

Every check returns a list of problems; an empty list means the answer is
accepted.  Homology is recomputed here from plain facet lists with our own
signed boundary matrices and elimination modulo large primes, spectra are
checked against trace identities and range bounds derived by hand from the
face counts, and the verify stream is checked against report counts fixed
by the corpus definition.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np

# Rank modulo p never exceeds the rank over Q, and equals it unless p divides
# every maximal non-zero minor; taking the larger of two ~2^31 primes makes a
# miss practically impossible, and p^2 < 2^62 keeps numpy int64 exact.
PRIMES = (2_147_483_647, 2_147_483_629)

# Report counts of the theorems whose inputs do not depend on --seed: the
# family grid, the named fixtures and the construction instances of the
# corpus.  The bounds and boundary suites iterate over the dimensions of the
# seeded random complexes, so their counts vary with the seed and are only
# required to repeat from pass to pass.
FULL_CORPUS_COUNTS = {
    "cone-shift-by-one": 6,
    "family-closed-form-spectrum": 147,
    "graph-product-spectral-sum": 4,
    "hodge-duality-zero-counts": 220,
    "join-spectral-sum": 10,
    "motif-duplication": 9,
    "regular-dual-spectra": 112,
    "wedge-spectrum": 10,
}
JOIN_SUITE_COUNTS = {
    "cone-shift-by-one": 6,
    "graph-product-spectral-sum": 4,
    "join-spectral-sum": 10,
}

_SUMMARY = re.compile(r"verify: (\d+) checks, (\d+) failed, (\d+) not applicable")


# ---------------------------------------------------------------------------
# face lattice and exact homology, independent of the package
# ---------------------------------------------------------------------------


def faces_by_dim(facets) -> dict[int, list[tuple[int, ...]]]:
    """Closure of a facet list, faces sorted within each dimension (-1 included)."""
    closed: set[tuple[int, ...]] = {()}
    for facet in facets:
        f = tuple(sorted(facet))
        for k in range(1, len(f) + 1):
            closed.update(combinations(f, k))
    out: dict[int, list[tuple[int, ...]]] = {}
    for f in closed:
        out.setdefault(len(f) - 1, []).append(f)
    return {d: sorted(fs) for d, fs in sorted(out.items())}


def signed_coboundary(lower, upper) -> np.ndarray:
    """Matrix of delta: rows ``upper`` faces, columns ``lower`` faces, sign (-1)^k."""
    col = {f: j for j, f in enumerate(lower)}
    mat = np.zeros((len(upper), len(lower)), dtype=np.int64)
    for r, g in enumerate(upper):
        for k in range(len(g)):
            mat[r, col[g[:k] + g[k + 1 :]]] = -1 if k % 2 else 1
    return mat


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) by row reduction with numpy int64 arithmetic."""
    a = np.array(matrix, dtype=np.int64) % p
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        if below.size:
            f = a[below, col][:, None]
            a[below] = (a[below] - f * a[rank]) % p
        rank += 1
    return rank


def rank_over_q(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    return max(rank_mod_p(matrix, p) for p in PRIMES)


def reduced_betti(facets) -> list[int]:
    """b~_{-1}, ..., b~_d of the complex generated by ``facets``."""
    fbd = faces_by_dim(facets)
    top = max(fbd)
    ranks = {-2: 0, top: 0}
    for j in range(-1, top):
        ranks[j] = rank_over_q(signed_coboundary(fbd[j], fbd[j + 1]))
    return [len(fbd[j]) - ranks[j] - ranks[j - 1] for j in range(-1, top + 1)]


def skeleton_betti(n_vertices: int, k: int) -> list[int]:
    """Closed form for the k-skeleton of the simplex on n vertices.

    Only b~_k = C(n-1, k+1) is non-zero.
    """
    return [comb(n_vertices - 1, k + 1) if j == k else 0 for j in range(-1, k + 1)]


# ---------------------------------------------------------------------------
# checks on program outputs
# ---------------------------------------------------------------------------


def check_betti_output(stdout: str, expected: list[int], face_counts: list[int]) -> list[str]:
    """``hodgelap betti`` output against the expected b~ vector and Euler's identity.

    ``face_counts`` are f_{-1}, ..., f_d from our own closure.
    """
    try:
        payload = json.loads(stdout)
        observed = [payload[f"b~{j}"] for j in range(-1, len(payload) - 1)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable betti output: {exc!r}"]
    problems = []
    if observed != expected:
        problems.append(f"betti {observed} != expected {expected}")
    chi_f = sum((-1) ** (j + 1) * f for j, f in enumerate(face_counts))
    chi_b = sum((-1) ** (j + 1) * b for j, b in enumerate(observed))
    if chi_f != chi_b:
        problems.append(f"Euler identity fails: faces {chi_f} vs betti {chi_b}")
    return problems


def check_spectrum(values, n_faces: int, expected_trace: float,
                   upper: float | None = None) -> list[str]:
    """Length |S_i|, non-negative, within ``upper`` if given, and trace identity."""
    vals = np.asarray(values, dtype=float)
    problems = []
    if vals.shape != (n_faces,):
        problems.append(f"spectrum length {vals.size} != |S_i| = {n_faces}")
    if not np.all(np.isfinite(vals)):
        return problems + ["non-finite eigenvalue"]
    if vals.size == 0:
        return problems
    scale = max(1.0, float(np.abs(vals).max()))
    slack = 1e-9 * scale
    if vals.min() < -slack:
        problems.append(f"negative eigenvalue {vals.min()}")
    if upper is not None and vals.max() > upper + slack:
        problems.append(f"eigenvalue {vals.max()} above the bound {upper}")
    trace_tol = 1e-9 * scale * max(1, vals.size)
    if abs(float(vals.sum()) - expected_trace) > trace_tol:
        problems.append(f"trace {float(vals.sum())} != expected {expected_trace}")
    return problems


def check_verify_output(rc: int, stdout: str, stderr: str,
                        fixed_counts: dict[str, int]) -> tuple[list[str], Counter]:
    """Exit code, per-report status, summary line and seed-independent counts.

    Returns the problems and the per-(theorem, status) counts, which the
    caller compares between passes.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    counts: Counter = Counter()
    lines = stdout.splitlines()
    for line in lines:
        try:
            report = json.loads(line)
            counts[(report["theorem_id"], report["status"])] += 1
        except (ValueError, KeyError, TypeError):
            problems.append(f"unreadable report line {line[:80]!r}")
            break
    n_fail = sum(n for (_, status), n in counts.items() if status == "fail")
    n_na = sum(n for (_, status), n in counts.items() if status == "not-applicable")
    if n_fail:
        problems.append(f"{n_fail} failed reports")
    summary = _SUMMARY.search(stderr)
    if summary is None:
        problems.append("no summary line on stderr")
    elif tuple(map(int, summary.groups())) != (len(lines), n_fail, n_na):
        problems.append(f"summary {summary.group(0)!r} disagrees with the stream")
    per_theorem = Counter()
    for (theorem, _), n in counts.items():
        per_theorem[theorem] += n
    for theorem, n in fixed_counts.items():
        if per_theorem[theorem] != n:
            problems.append(f"{theorem}: {per_theorem[theorem]} reports, expected {n}")
    return problems, counts
