"""Spans around the calls into each layer of the package, from outside it.

The package imports names directly (``spectra`` calls ``exact_rank``,
``theorems`` and ``cli`` call ``betti``), so a function is wrapped at every
binding site: each attribute of a loaded ``hodgelap`` module, or value of a
module-level dict, that is the original function object is replaced by the
wrapper while the tracer is installed, and restored afterwards.

A span is ``[name, start_ns, end_ns, parent_index, value]``.  Spans stay in
memory and are written out when the run ends.  Self time is the span's
duration minus the durations of its direct children.  ``value`` carries the
per-call count a metric needs: memo hit (0/1), Laplacian rows, eigensolver
order n, matrix entries m*n, or reports yielded by a suite.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

THEOREM_CHECKS = (
    "check_family",
    "check_hodge_and_duality",
    "check_bounds",
    "check_wedge",
    "check_join",
    "check_cone",
    "check_graph_product",
    "check_duplication",
    "check_boundary_eigenvalue",
    "check_regular_dual",
)
SUITES = ("families", "hodge", "bounds", "wedge", "join", "duplication", "boundary", "regular")


def _memo_has(complex_, key) -> int:
    return int(key in getattr(complex_, "_memo", {}))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _weight_map_hit(args, kwargs):
    scheme = _arg(args, kwargs, 1, "scheme")
    return _memo_has(_arg(args, kwargs, 0, "complex_"), ("wmap", getattr(scheme, "kind", None)))


def _coboundary_hit(args, kwargs):
    return _memo_has(_arg(args, kwargs, 0, "complex_"), ("cobound", _arg(args, kwargs, 1, "i")))


def _betti_hit(args, kwargs):
    return _memo_has(_arg(args, kwargs, 0, "complex_"), "betti")


def _order(args, kwargs):
    return int(np.shape(_arg(args, kwargs, 0, "a"))[0])


def _entries(args, kwargs):
    return int(np.prod(np.shape(_arg(args, kwargs, 0, "matrix"))))


def _rows(result):
    return int(result.matrix.shape[0])


# (module, attribute, span name, value before the call, value from the result)
FUNCTIONS = [
    ("hodgelap.core", "from_facets", "core.from_facets", None, None),
    ("hodgelap.core", "closure_of", "core.closure_of", None, None),
    ("hodgelap.operators", "weight_map", "operators.weight_map", _weight_map_hit, None),
    ("hodgelap.operators", "coboundary_matrix", "operators.coboundary_matrix", _coboundary_hit, None),
    ("hodgelap.operators", "laplacian", "operators.laplacian", None, _rows),
    ("hodgelap.operators", "symmetrize", "operators.symmetrize", None, None),
    ("hodgelap.spectra", "spectrum", "spectra.spectrum", None, None),
    ("hodgelap.spectra", "betti", "spectra.betti", _betti_hit, None),
    ("hodgelap.spectra", "bounds_report", "spectra.bounds_report", None, None),
    ("numpy.linalg", "eigvalsh", "spectra.eigensolver", _order, None),
    ("numpy.linalg", "eigh", "spectra.eigensolver", _order, None),
    ("hodgelap._kernels", "exact_rank", "kernels.exact_rank", _entries, None),
    ("hodgelap._kernels", "bareiss_rank_pyint", "kernels.pyint_fallback", None, None),
    ("hodgelap.corpus", "full_corpus", "corpus.full_corpus", None, None),
    ("hodgelap.corpus", "standard_fixtures", "corpus.standard_fixtures", None, None),
    ("hodgelap.cli", "parse_document", "cli.parse_document", None, None),
    ("hodgelap.cli", "document_dict", "cli.document_dict", None, None),
] + [("hodgelap.theorems", fn, f"theorems.{fn}", None, None) for fn in THEOREM_CHECKS]


class Tracer:
    """Installs span-recording wrappers; usable as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, value):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, value])
        self._stack.append(idx)
        span = self.spans[idx]
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as a whole pass."""
        span = self._open(name, None)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after:
                span[4] = after(result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        """A suite is a generator: its span covers consuming it, not the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, 0)
            try:
                for item in fn(*args, **kwargs):
                    span[4] += 1
                    yield item
            finally:
                tracer._close(span)

        return wrapper

    def _wrap_cofaces(self, fn):
        """Only calls that find the coface table empty build it; only they get a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(complex_, face):
            if getattr(complex_, "_cofaces", None) is not None:
                return fn(complex_, face)
            span = tracer._open("core.cofaces", None)
            try:
                return fn(complex_, face)
            finally:
                tracer._close(span)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _set(self, owner, key, value, is_dict):
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def _patch_everywhere(self, original, wrapper):
        """Replace ``original`` at every binding site in the loaded package."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hodgelap" or mod_name.startswith("hodgelap.")
                                      or mod_name == "numpy.linalg"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, False)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapper, True)

    def install(self):
        import hodgelap.constructions
        import hodgelap.core
        import hodgelap.suites

        targets = []
        for mod_name, attr, name, before, after in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if callable(fn):
                targets.append((fn, self._wrap(fn, name, before, after)))
        for attr, fn in vars(hodgelap.constructions).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == "hodgelap.constructions"):
                targets.append((fn, self._wrap(fn, "constructions")))
        for suite in SUITES:
            fn = getattr(hodgelap.suites, f"suite_{suite}", None)
            if inspect.isgeneratorfunction(fn):
                targets.append((fn, self._wrap_generator(fn, f"suites.{suite}")))
        for original, wrapper in targets:
            self._patch_everywhere(original, wrapper)
        cls = hodgelap.core.SimplicialComplex
        self._set(cls, "facets", self._wrap(cls.facets, "core.facets"), False)
        self._set(cls, "cofaces", self._wrap_cofaces(cls.cofaces), False)

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span in ns: duration minus its direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]


def layer_metrics(spans: list[list], self_ns: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    value: dict[str, int] = defaultdict(int)
    for (name, start, end, _, val), own in zip(spans, self_ns):
        calls[name] += 1
        self_s[name] += own * 1e-9
        total_s[name] += (end - start) * 1e-9
        if val:
            value[name] += int(val) ** 3 if name == "spectra.eigensolver" else int(val)

    def ratio(name):
        return value[name] / calls[name] if calls[name] else 0.0

    m: dict[str, float] = {}
    for name in ("core.from_facets", "core.closure_of", "core.facets"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["core.cofaces.builds"] = calls["core.cofaces"]
    m["core.cofaces.build_s"] = total_s["core.cofaces"]
    for name in ("operators.weight_map", "operators.coboundary_matrix"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.hit_ratio"] = ratio(name)
    m["operators.laplacian.calls"] = calls["operators.laplacian"]
    m["operators.laplacian.self_s"] = self_s["operators.laplacian"]
    m["operators.laplacian.rows"] = value["operators.laplacian"]
    m["operators.symmetrize.calls"] = calls["operators.symmetrize"]
    m["operators.symmetrize.self_s"] = self_s["operators.symmetrize"]
    m["spectra.spectrum.calls"] = calls["spectra.spectrum"]
    m["spectra.spectrum.self_s"] = self_s["spectra.spectrum"]
    m["spectra.eigensolver.calls"] = calls["spectra.eigensolver"]
    m["spectra.eigensolver.self_s"] = self_s["spectra.eigensolver"]
    m["spectra.eigensolver.n3"] = value["spectra.eigensolver"]
    m["spectra.betti.calls"] = calls["spectra.betti"]
    m["spectra.betti.self_s"] = self_s["spectra.betti"]
    m["spectra.betti.hit_ratio"] = ratio("spectra.betti")
    m["spectra.bounds_report.calls"] = calls["spectra.bounds_report"]
    m["spectra.bounds_report.self_s"] = self_s["spectra.bounds_report"]
    m["kernels.exact_rank.calls"] = calls["kernels.exact_rank"]
    m["kernels.exact_rank.self_s"] = self_s["kernels.exact_rank"]
    m["kernels.exact_rank.entries"] = value["kernels.exact_rank"]
    m["kernels.pyint_fallback.calls"] = calls["kernels.pyint_fallback"]
    m["constructions.calls"] = calls["constructions"]
    m["constructions.self_s"] = self_s["constructions"]
    m["corpus.full_corpus.calls"] = calls["corpus.full_corpus"]
    m["corpus.full_corpus.self_s"] = self_s["corpus.full_corpus"]
    m["corpus.standard_fixtures.calls"] = calls["corpus.standard_fixtures"]
    for fn in THEOREM_CHECKS:
        m[f"theorems.{fn}.calls"] = calls[f"theorems.{fn}"]
        m[f"theorems.{fn}.self_s"] = self_s[f"theorems.{fn}"]
    for suite in SUITES:
        m[f"suites.{suite}.s"] = total_s[f"suites.{suite}"]
        m[f"suites.{suite}.reports"] = value[f"suites.{suite}"]
    for name in ("cli.parse_document", "cli.document_dict"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    return m
