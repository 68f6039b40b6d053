"""Verification suites: run the theorem checks over the fixture corpus.

Each suite yields :class:`CheckReport` objects; ``run_suites`` aggregates
them deterministically (sorted by theorem id, then input hash).  The corpus
suites ``families``, ``hodge``, ``bounds``, ``boundary`` and ``regular``
take the (name, complex) entries to check.  ``run_suites`` builds the corpus
once and walks its distinct complexes: equal entries share one object,
which gets every selected corpus suite's checks before it is dropped, so
its memo tables (coboundaries, ranks, Betti numbers, weights, pure parts,
solved sides) are built once for all five.  A complex filed under several
names is checked once for each distinct value of what a suite reads from
the name (whether the boundary suite also runs its duplication checks,
whether the name is in the regular suite's set); every other name gets a
copy of those reports under its own name.  The distinct complexes do not
depend on each other, so the walk runs on every CPU the process may use:
their groups are dealt round-robin into one shard per CPU, this process
checks one shard and a child made with ``os.fork`` checks each other, and
the children pickle their reports back through pipes.  The reports are put
back in group order, so the result, and the CLI's report stream, are the
same byte for byte on any number of CPUs.  The CLI ``verify`` subcommand
is a thin wrapper over :func:`run_suites`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import signal
import threading
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from . import corpus
from .constructions import FamilySpec
from .core import SimplicialComplex
from .errors import WorkerError
from .spectra import DEFAULT_VALUE_TOL
from .theorems import (
    CheckItem,
    CheckReport,
    check_boundary_eigenvalue,
    check_bounds,
    check_cone,
    check_duplication,
    check_family,
    check_graph_product,
    check_hodge_and_duality,
    check_join,
    check_regular_dual,
    check_wedge,
)

# Suites whose checks read one corpus complex at a time; run_suites walks
# the corpus once for all of them.  All but families, which checks named
# family fixtures against their closed forms, also check user documents.
_CORPUS_SUITES = ("families", "hodge", "bounds", "boundary", "regular")
_DOCUMENT_SUITES = ("hodge", "bounds", "boundary", "regular")


@functools.cache
def _family_checks() -> Mapping[str, tuple[FamilySpec, ...]]:
    """The specs checked against their closed form, by family fixture name.

    A simplex is checked at every dimension i = -1..n-1.
    """
    return MappingProxyType({
        corpus.family_name(spec): (
            tuple(FamilySpec("simplex", n=spec.n, i=i) for i in range(-1, spec.n))
            if spec.family == "simplex"
            else (spec,)
        )
        for spec in corpus.family_specs()
    })


def suite_families(entries, tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k in entries:
        for spec in _family_checks()[name]:
            yield check_family(spec, k, tol)


def suite_hodge(
    entries, seed: int = 0, tol: float = DEFAULT_VALUE_TOL, **_
) -> Iterable[CheckReport]:
    for name, k in entries:
        yield check_hodge_and_duality(k, name, tol=tol, seed=seed)


def suite_bounds(entries, seed: int = 0, **_) -> Iterable[CheckReport]:
    for name, k in entries:
        for i in range(0, k.dim):
            for kind in ("combinatorial", "normalized", "custom"):
                yield check_bounds(k, i, kind, name, seed=seed)


def suite_wedge(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k1, k2, f1, f2, i in corpus.wedge_instances():
        yield check_wedge(k1, k2, f1, f2, i, name, tol=tol)


def suite_join(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k1, k2 in corpus.join_instances():
        yield check_join(k1, k2, name, tol=tol)
    for name, k in corpus.cone_instances():
        yield check_cone(k, name, tol=tol)
    for name, g1, g2 in corpus.product_instances():
        yield check_graph_product(g1, g2, name, tol=tol)


def suite_duplication(tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k, verts in corpus.duplication_instances():
        yield check_duplication(k, verts, name, tol=tol)


@functools.cache
def _duplication_fixture_names() -> frozenset[str]:
    """Names of the standard and duplication fixtures; they do not depend on the seed."""
    names = set(corpus.standard_fixtures())
    names.update(name for name, _, _ in corpus.duplication_instances())
    return frozenset(names)


def _runs_duplication(name: str, k: SimplicialComplex) -> bool:
    """Small standard and duplication fixtures also get the duplication checks."""
    return k.n_faces(0) <= 8 and name in _duplication_fixture_names()


def suite_boundary(entries, tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k in entries:
        run_dup = _runs_duplication(name, k)
        for i in range(0, k.dim):
            yield check_boundary_eigenvalue(
                k, i, name, tol=tol, duplication_fixtures=run_dup
            )


@functools.cache
def _regular_fixture_names() -> frozenset[str]:
    """The corpus names the regular suite checks: standard and small family fixtures."""
    names = set(corpus.standard_fixtures())
    names.update(map(corpus.family_name, corpus.family_specs(max_i=2, max_m=8, max_n=5)))
    return frozenset(names)


def suite_regular(entries, tol: float = DEFAULT_VALUE_TOL, **_) -> Iterable[CheckReport]:
    for name, k in entries:
        for i in range(0, k.dim):
            yield check_regular_dual(k, i, name, tol=tol)


_SUITE_FUNCS = {
    "families": suite_families,
    "hodge": suite_hodge,
    "bounds": suite_bounds,
    "wedge": suite_wedge,
    "join": suite_join,
    "duplication": suite_duplication,
    "boundary": suite_boundary,
    "regular": suite_regular,
}
SUITES = tuple(_SUITE_FUNCS)


def _setting(suite: str, name: str, k: SimplicialComplex, user: set[str]) -> Hashable:
    """What the reports of ``suite`` on ``k`` read from ``name``; None skips the entry.

    Entries of one complex with equal settings get equal reports but for
    the name in their inputs.  The family reports name their spec, not the
    complex, so every family fixture is its own setting.
    """
    if suite == "families":
        return name if name in _family_checks() and name not in user else None
    if suite == "boundary":
        return _runs_duplication(name, k)
    if suite == "regular":
        return True if name in user or name in _regular_fixture_names() else None
    return True


def _fresh(value):
    """``value`` with every list and dict in it copied.

    A :class:`CheckItem` is frozen, so it is copied only when its expected
    or observed value is a list.
    """
    if isinstance(value, list):
        return [_fresh(v) for v in value]
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    if isinstance(value, CheckItem) and (
        isinstance(value.expected, list) or isinstance(value.observed, list)
    ):
        return CheckItem(value.name, _fresh(value.expected), _fresh(value.observed),
                         value.deviation, value.tol)
    return value


def _renamed(report: CheckReport, name: str) -> CheckReport:
    """A copy of ``report`` on the complex named ``name``.

    Reports hold lists, dicts and immutable values, so copying the lists
    and dicts leaves the copy no mutable state in common with ``report``.
    """
    return CheckReport(
        report.theorem_id,
        {**report.inputs, "complex": name},
        _fresh(report.items),
        _fresh(report.certificates),
        report.applicable,
        list(report.notes),
    )


def _worker_count() -> int:
    """How many processes walk the corpus: one per CPU this process may use.

    One where the platform has no ``os.fork``, or where the process runs
    other Python threads: a lock such a thread holds at the fork would stay
    held in the child.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_group(
    k: SimplicialComplex,
    names: list[str],
    suites: list[str],
    user: set[str],
    seed: int,
    tol: float,
) -> list[CheckReport]:
    """The reports of the corpus ``suites`` on ``k``, filed under each of ``names``.

    ``k`` gets its checks once per suite and setting (:func:`_setting`);
    the other names get renamed copies of those reports.
    """
    reports: list[CheckReport] = []
    done: dict[tuple[str, Hashable], list[CheckReport]] = {}
    for name in names:
        for suite in suites:
            setting = _setting(suite, name, k, user)
            if setting is None:
                continue
            first = done.get((suite, setting))
            if first is None:
                first = done[(suite, setting)] = list(
                    _SUITE_FUNCS[suite]([(name, k)], seed=seed, tol=tol)
                )
                reports += first
            else:
                reports += (_renamed(report, name) for report in first)
    return reports


def _check_shard(groups: list, check) -> tuple[list[list[CheckReport]], Exception | None]:
    """``check`` on each group of ``groups`` in order, one report list per group.

    Each group leaves ``groups`` as it is taken, so its complex and memo
    tables are dropped once it is done.  The walk stops at the first check
    that raises, and returns that error beside the lists made before it.
    """
    groups.reverse()
    done = []
    while groups:
        k, names = groups.pop()
        try:
            done.append(check(k, names))
        except Exception as exc:  # handed to the parent, which raises it
            return done, exc
    return done, None


def _by_fields(obj):
    """Pickle a dataclass instance as a call of its constructor.

    Unpickled by default, an instance gets a dict of its own; built by its
    constructor, it keeps the compact attribute layout that instances made
    here have, and a shard's reports take about a seventh less memory.
    """
    return type(obj), tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _fork_shard(groups: list, shard: int, workers: int, check) -> tuple[int, int]:
    """Fork a child that checks every ``workers``-th group from ``shard`` on.

    The child pickles what :func:`_check_shard` returns into a pipe and
    ends with ``os._exit``, never returning to the caller.  Returns the
    child's pid and the read end of its pipe.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    parent, code = os.getppid(), 1

    def check_while_parent_lives(k, names):
        # A parent ended by a signal cannot reap its children; they end too.
        if os.getppid() != parent:
            os._exit(code)
        return check(k, names)

    try:
        os.close(read)
        mine = groups[shard::workers]
        groups.clear()
        done, error = _check_shard(mine, check_while_parent_lives)
        try:
            head = pickle.dumps((len(done), error), pickle.HIGHEST_PROTOCOL)
            pickle.loads(head)
        except Exception as exc:  # an error that does not pickle, or not back
            head = pickle.dumps((len(done), WorkerError(f"{type(error).__name__}: {error} ({exc})")))
        with open(write, "wb") as pipe:
            pipe.write(head)
            pickler = pickle.Pickler(pipe, pickle.HIGHEST_PROTOCOL)
            pickler.dispatch_table = {CheckReport: _by_fields, CheckItem: _by_fields}
            for reports in done:
                pickler.dump(reports)
                # One pickle per group keeps the reader's memo table small.
                pickler.clear_memo()
        code = 0
    finally:
        os._exit(code)


def _receive(read: int) -> tuple[list[list[CheckReport]], Exception | None] | None:
    """What a child of :func:`_fork_shard` sent through ``read``; None if it was cut short."""
    with open(read, "rb", closefd=False) as pipe:
        try:
            count, error = pickle.load(pipe)
            return [pickle.load(pipe) for _ in range(count)], error
        except (EOFError, pickle.UnpicklingError):
            return None


def _reap(pid: int, read: int, kill: bool = False) -> int:
    """Close ``read``, wait for child ``pid`` (killed first if ``kill``), return its exit code.

    A negative code is the signal that ended the child.
    """
    os.close(read)
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _walk(
    suites: list[str],
    seed: int,
    extra: dict[str, SimplicialComplex] | None,
    random_count: int,
    tol: float,
) -> list[CheckReport]:
    """The reports of the corpus ``suites``, walking each distinct complex once.

    The corpus names (and the user documents of ``extra``) are grouped by
    their object, in order of first appearance, and the groups are dealt
    round-robin into one shard per worker (:func:`_worker_count`).  This
    process checks shard 0 and a forked child checks each other shard;
    the report lists come back in group order, so the result does not
    depend on the number of workers.  Should a check raise, the error of
    the first failing group is raised, as in one process.
    """
    fixtures = corpus.full_corpus(seed, random_count)
    user = set(extra or ())
    fixtures.update(extra or {})
    by_id: dict[int, tuple[SimplicialComplex, list[str]]] = {}
    for name, k in fixtures.items():
        by_id.setdefault(id(k), (k, []))[1].append(name)
    fixtures.clear()
    groups = list(by_id.values())
    by_id.clear()
    n_groups = len(groups)
    workers = min(_worker_count(), n_groups)
    check = functools.partial(_check_group, suites=suites, user=user, seed=seed, tol=tol)
    children: dict[int, tuple[int, int]] = {}  # shard -> (pid, read end), until reaped
    outcomes = {}
    try:
        for shard in range(1, workers):
            try:
                children[shard] = _fork_shard(groups, shard, workers, check)
            except OSError:  # no process to spare: this one checks the rest
                break
        own = {shard: groups[shard::workers] for shard in range(workers) if shard not in children}
        groups.clear()
        for shard in own:
            outcomes[shard] = _check_shard(own[shard], check)
        for shard in list(children):
            outcome = _receive(children[shard][1])
            code = _reap(*children.pop(shard))
            if code < 0:
                raise WorkerError(f"a corpus worker was killed by signal {-code}")
            if code or outcome is None:
                raise WorkerError(f"a corpus worker exited with code {code} before its reports")
            outcomes[shard] = outcome
    finally:
        for pid, read in children.values():
            _reap(pid, read, kill=True)
    errors = [(shard + len(done) * workers, error)
              for shard, (done, error) in outcomes.items() if error is not None]
    if errors:
        raise min(errors, key=lambda pair: pair[0])[1]
    return [report for index in range(n_groups)
            for report in outcomes[index % workers][0][index // workers]]


def run_suites(
    names: Iterable[str] = ("all",),
    seed: int = 0,
    extra: dict[str, SimplicialComplex] | None = None,
    tol: float = DEFAULT_VALUE_TOL,
    random_count: int = corpus.RANDOM_COUNT,
) -> list[CheckReport]:
    """Run the requested suites and return reports in deterministic order.

    The corpus suites (``families``, ``hodge``, ``bounds``, ``boundary``,
    ``regular``) share one walk over the distinct corpus complexes and the
    user documents of ``extra``; the others build their own instances.
    """
    selected = list(SUITES) if "all" in names else [n for n in SUITES if n in set(names)]
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    walked = [name for name in selected if name in _CORPUS_SUITES]
    # Each suite has its own theorem ids and each report names its input,
    # so the order of the walk does not change the sorted order.
    reports = _walk(walked, seed, extra, random_count, tol) if walked else []
    for name in selected:
        if name not in walked:
            reports.extend(_SUITE_FUNCS[name](seed=seed, extra=extra, tol=tol))
    reports.sort(key=lambda r: (r.theorem_id, r.input_hash()))
    return reports
