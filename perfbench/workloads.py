"""The benchmark workloads: inputs made from the seed, timed operations, checks.

Each workload turns the seed into plain inputs (CLI arguments, complex
documents or facet lists) once, in set-up.  A pass then runs every operation
from those plain inputs, so every memo table inside the package starts cold
as it does for a CLI user, and the next pass repeats the same work.  Only the
operation itself is timed; its check runs afterwards.

Why these three workloads:

* ``corpus_verify`` -- ``hodgelap verify --suite all``, the headline number.
  Thousands of tiny matrices: per-call overhead (sparse assembly, memo
  misses, repeated Betti numbers) dominates, large kernels do little.
* ``homology_ladder`` -- ``hodgelap betti`` on simplex skeleta and sparse
  random 2-complexes: exact rank does nearly all the work, the eigensolver
  none.
* ``large_spectrum`` -- one 3323-edge random 2-complex: document write and
  read, then dense L_1^up / L_0^up spectra under two weight schemes.  The
  eigensolver and face lattice do the work; exact rank does none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

import hostref
import oracles
from hodgelap import cli, core, operators, spectra

# The package is called through module attributes, never through names bound
# here, so that the tracer's wrappers at those binding sites see every call.


@dataclass
class PassResult:
    """Timing and outcome of the operations of one pass."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, name, fn, check):
        """Time ``fn()``, then check its result outside the timed region.

        Time the host clock spent sampling during the call is not counted.
        An operation fails when it raises or when ``check`` reports problems.
        Returns the result, or None when the call raised.
        """
        self.attempted += 1
        paused = hostref.CLOCK.paused_s
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crash is a counted failure, not an abort
            self._add(start, paused)
            self.failed += 1
            self.failures.append(f"{name}: raised {exc!r}")
            return None
        self._add(start, paused)
        problems = check(result)
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))
        return result

    def _add(self, start, paused):
        self.seconds += time.perf_counter() - start - (hostref.CLOCK.paused_s - paused)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``hodgelap <argv>`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def random_2complex(rng: np.random.Generator, n_vertices: int, n_triangles: int,
                    n_edges: int) -> list[tuple[int, int, int]]:
    """Triangles of a random pure 2-complex with exactly these face counts.

    Random triangles are accepted while the target counts stay reachable, so
    the seed changes which faces appear but not how many: the work of exact
    rank and of the dense eigensolver depends on the matrix sizes, and fixed
    sizes keep runs on different seeds comparable.
    """
    while True:
        tris: set[tuple[int, int, int]] = set()
        edges: set[tuple[int, int]] = set()
        verts: set[int] = set()
        for _ in range(100):
            draws = np.sort(rng.integers(0, n_vertices, (n_triangles, 3)), axis=1)
            for a, b, c in draws.tolist():
                if a == b or b == c or (a, b, c) in tris:
                    continue
                new_e = {(a, b), (a, c), (b, c)} - edges
                new_v = {a, b, c} - verts
                left = n_triangles - len(tris) - 1
                need_e = n_edges - len(edges) - len(new_e)
                need_v = n_vertices - len(verts) - len(new_v)
                if need_e < 0 or need_e > 3 * left or need_v > 3 * left:
                    continue
                tris.add((a, b, c))
                edges |= new_e
                verts |= new_v
                if left == 0:
                    return sorted(tris)
        # Dead end (no admissible triangle left): draw a fresh complex.


class CorpusVerify:
    """``hodgelap verify --suite all --seed <seed>``: one operation per pass."""

    name = "corpus_verify"
    scaled = True  # interpreter-bound: wall_s is scaled to a quiet host (hostref.py)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        suite = "join" if tiny else "all"
        self.argv = ["verify", "--suite", suite, "--seed", str(seed)]
        self.fixed_counts = oracles.JOIN_SUITE_COUNTS if tiny else oracles.FULL_CORPUS_COUNTS
        self.reference: tuple[str, object] | None = None

    def warmup(self):
        run_cli(["verify", "--suite", "join", "--seed", self.argv[-1]])

    def check(self, result) -> list[str]:
        rc, out, err = result
        problems, counts = oracles.check_verify_output(rc, out, err, self.fixed_counts)
        seen = (hashlib.md5(out.encode()).hexdigest(), counts)
        if self.reference is None:
            self.reference = seen
        elif seen != self.reference:
            problems.append("report stream differs from the first pass of this run")
        return problems

    def run_pass(self, res: PassResult):
        res.op("verify", lambda: run_cli(self.argv), self.check)

    def close(self):
        pass


@dataclass
class LadderDoc:
    name: str
    facets: list
    expected: list[int] | None  # closed form; None until the first check computes it
    path: Path
    face_counts: list[int] = field(init=False)

    def __post_init__(self):
        self.face_counts = [len(fs) for fs in oracles.faces_by_dim(self.facets).values()]


class HomologyLadder:
    """``hodgelap betti DOC`` on skeleta and sparse random 2-complexes."""

    name = "homology_ladder"
    scaled = True

    SKELETA = ((14, 2), (16, 2), (11, 3))
    RANDOM = 2, (30, 200, 330)  # count, (vertices, triangles, edges)
    TINY_SKELETA = ((6, 2), (7, 2), (6, 3))
    TINY_RANDOM = 1, (9, 12, 24)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        skeleta = self.TINY_SKELETA if tiny else self.SKELETA
        count, shape = self.TINY_RANDOM if tiny else self.RANDOM
        inputs = [
            (f"skeleton-n{n}-k{k}", combinations(range(n), k + 1), oracles.skeleton_betti(n, k))
            for n, k in skeleta
        ]
        inputs += [
            (f"random-{j}-v{shape[0]}-t{shape[1]}", random_2complex(rng, *shape), None)
            for j in range(count)
        ]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.docs = []
        for name, facets, expected in inputs:
            doc = LadderDoc(name, [list(f) for f in facets], expected, workdir / f"{name}.json")
            doc.path.write_text(json.dumps({"name": name, "facets": doc.facets}))
            self.docs.append(doc)
        self.warm_path = workdir / "warmup.json"
        self.warm_path.write_text(json.dumps({"facets": [[0, 1, 2], [1, 2, 3], [3, 4]]}))

    def warmup(self):
        run_cli(["betti", str(self.warm_path)])

    def check(self, doc: LadderDoc, result) -> list[str]:
        rc, out, _ = result
        if rc != 0:
            return [f"exit code {rc}"]
        if doc.expected is None:
            doc.expected = oracles.reduced_betti(doc.facets)
        return oracles.check_betti_output(out, doc.expected, doc.face_counts)

    def run_pass(self, res: PassResult):
        for doc in self.docs:
            res.op(doc.name, lambda d=doc: run_cli(["betti", str(d.path)]),
                   lambda r, d=doc: self.check(d, r))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class LargeSpectrum:
    """Document round trip and dense up-spectra of one large random 2-complex.

    Calls the library rather than ``hodgelap spectrum``, which would also run
    ``betti`` and ``bounds_report``: at this size their pure-Python exact rank
    takes minutes and would hide the eigensolver.
    """

    name = "large_spectrum"
    # Most of a pass is inside LAPACK, which the host's load slows about a
    # third as much as the pure-Python reference of hostref.py: scaling by
    # that reference would add noise, not remove it, so wall_s stays raw.
    scaled = False

    SHAPE = (120, 1500, 3323)  # vertices, triangles, edges
    TINY_SHAPE = (20, 40, 88)
    WARM_SHAPE = (12, 20, 40)
    SCHEMES = ("normalized", "combinatorial")
    DIMS = (1, 0)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.triangles = random_2complex(rng, *(self.TINY_SHAPE if tiny else self.SHAPE))
        self.warm_triangles = random_2complex(rng, *self.WARM_SHAPE)
        self.expect = self._expectations(self.triangles)
        self.warm_expect = self._expectations(self.warm_triangles)

    @staticmethod
    def _expectations(triangles) -> dict:
        """Face counts and the trace of each up operator, from the facets alone.

        Under combinatorial weights each (i+1)-face adds 1 to the diagonal
        entry of each of its i+2 faces, so the trace of L_i^up is
        (i+2) f_{i+1}; under normalized weights every i-face with a coface
        has diagonal entry deg/w = 1 and every other i-face a zero row.
        """
        fbd = oracles.faces_by_dim(triangles)
        counts = {d: len(fs) for d, fs in fbd.items()}
        traces = {}
        for i in LargeSpectrum.DIMS:
            with_coface = {g[:k] + g[k + 1 :] for g in fbd[i + 1] for k in range(len(g))}
            traces[("normalized", i)] = float(len(with_coface))
            traces[("combinatorial", i)] = float((i + 2) * counts[i + 1])
        return {"counts": counts, "traces": traces,
                "facets": sorted(tuple(t) for t in triangles)}

    def warmup(self):
        res = PassResult()
        self._pass(self.warm_triangles, self.warm_expect, res)
        if res.failed:
            raise RuntimeError("warm-up pass failed: " + "; ".join(res.failures))

    def run_pass(self, res: PassResult):
        self._pass(self.triangles, self.expect, res)

    @staticmethod
    def _counts_problems(complex_, counts) -> list[str]:
        got = {d: complex_.n_faces(d) for d in counts}
        return [] if got == counts else [f"face counts {got} != {counts}"]

    def _pass(self, triangles, expect, res: PassResult):
        facet_lists = [list(t) for t in triangles]
        built = res.op("build", lambda: core.from_facets(facet_lists),
                       lambda k: self._counts_problems(k, expect["counts"]))
        text = res.op("write", lambda: json.dumps(cli.document_dict(built, "large")),
                      lambda t: [] if sorted(map(tuple, json.loads(t)["facets"])) == expect["facets"]
                      else ["written facets differ from the input facets"])
        k = res.op("read", lambda: cli.parse_document(text).to_complex(),
                   lambda k: self._counts_problems(k, expect["counts"]))
        for kind in self.SCHEMES:
            scheme = operators.WeightScheme(kind)
            for i in self.DIMS:
                # The normalized up spectrum of order i lies in [0, i+2].
                upper = float(i + 2) if kind == "normalized" else None
                res.op(f"spectrum-{kind}-{i}",
                       lambda i=i, s=scheme: spectra.spectrum(operators.laplacian(k, i, "up", s)).values,
                       lambda v, i=i, kind=kind, upper=upper: oracles.check_spectrum(
                           v, expect["counts"][i], expect["traces"][(kind, i)], upper))

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (CorpusVerify, HomologyLadder, LargeSpectrum)}
