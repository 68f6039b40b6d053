"""Verification suites: run the theorem checks over the fixture corpus.

Each suite is one check in the table ``_SUITES``, which gives
:class:`CheckReport` objects; ``run_suites`` aggregates them
deterministically (sorted by theorem id, then input hash).  The check of a
corpus suite, ``families``, ``hodge``, ``bounds``, ``boundary`` or
``regular``, takes one complex, a name it is filed under and what the
suite reads from that name (:func:`_reading`); ``wedge``, ``join`` and
``duplication`` build their own instances and take the tolerance alone.
``run_suites`` runs every selected suite in one walk over units of work:
one per distinct corpus complex when a corpus suite is selected, then one
per other suite.  Equal corpus entries share one object, which gets every
selected corpus suite's checks before it is dropped, so its memo tables
(coboundaries, ranks, weights, pure parts, solved sides) are built once
for all five.  A complex filed under several names is checked once for
each distinct reading of a name, the one value that both decides this and
is handed to the check; every other name gets a copy of those reports
under its own name.  The units do not depend on each other, so the walk
runs on every CPU the process may use: they are dealt in turn into one
shard per CPU, this process checks one shard and a child made with
``os.fork`` checks each other.  The process that checks a unit also
encodes each of its reports: its sort key and its line of the CLI's report
stream, which the children pickle back with the reports through pipes.  A
report and its items have slots, so an unpickled one is as compact as one
built here.  The entries are put back in unit order and sorted on their
keys, so the result, and the CLI's report stream, are the same byte for
byte on any number of CPUs.  The CLI ``verify`` subcommand prints the
lines of :func:`_entries`, and :func:`run_suites` returns their reports.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import signal
import threading
from operator import itemgetter
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


def suite_wedge(tol: float) -> Iterable[CheckReport]:
    for name, k1, k2, f1, f2, i in corpus.wedge_instances():
        yield check_wedge(k1, k2, f1, f2, i, name, tol=tol)


def suite_join(tol: float) -> Iterable[CheckReport]:
    for name, k1, k2 in corpus.join_instances():
        yield check_join(k1, k2, name, tol=tol)
    for name, k in corpus.cone_instances():
        yield check_cone(k, name, tol=tol)
    for name, g1, g2 in corpus.product_instances():
        yield check_graph_product(g1, g2, name, tol=tol)


def suite_duplication(tol: float) -> Iterable[CheckReport]:
    for name, k, verts in corpus.duplication_instances():
        yield check_duplication(k, verts, name, tol=tol)


# Each suite's check, in SUITES order.  A corpus suite's check takes one
# complex, a name it is filed under, what the suite reads from that name
# (:func:`_reading`), the seed and the tolerance; each other suite builds
# its own instances and takes the tolerance alone.
_SUITES = {
    "families": lambda k, name, specs, seed, tol: [check_family(spec, k, tol) for spec in specs],
    "hodge": lambda k, name, _, seed, tol: [check_hodge_and_duality(k, name, tol=tol, seed=seed)],
    "bounds": lambda k, name, _, seed, tol: [
        check_bounds(k, i, kind, name, seed=seed)
        for i in range(k.dim) for kind in ("combinatorial", "normalized", "custom")
    ],
    "wedge": suite_wedge,
    "join": suite_join,
    "duplication": suite_duplication,
    "boundary": lambda k, name, run_dup, seed, tol: [
        check_boundary_eigenvalue(k, i, name, tol=tol, duplication_fixtures=run_dup)
        for i in range(k.dim)
    ],
    "regular": lambda k, name, _, seed, tol: [check_regular_dual(k, i, name, tol=tol)
                                              for i in range(k.dim)],
}
SUITES = tuple(_SUITES)


@functools.cache
def _duplication_fixture_names() -> frozenset[str]:
    """Names of the standard and duplication fixtures; they do not depend on the seed."""
    names = set(corpus.standard_fixtures())
    names.update(name for name, _, _ in corpus.duplication_instances())
    return frozenset(names)


@functools.cache
def _regular_fixture_names() -> frozenset[str]:
    """The corpus names the regular suite checks: standard and small family fixtures."""
    names = set(corpus.standard_fixtures())
    names.update(map(corpus.family_name, corpus.family_specs(max_i=2, max_m=8, max_n=5)))
    return frozenset(names)


def _reading(suite: str, name: str, k: SimplicialComplex, user: set[str]) -> Hashable:
    """What the check of corpus ``suite`` on ``k`` reads from ``name``; None skips the name.

    The families suite reads the specs of a family fixture, the boundary
    suite whether a small standard or duplication fixture also gets the
    duplication checks, and the regular suite whether the name is in its
    set or is a user document's.  Names of one complex with equal readings
    get equal reports but for the name in their inputs.
    """
    if suite == "families":
        return None if name in user else _family_checks().get(name)
    if suite == "boundary":
        return k.n_faces(0) <= 8 and name in _duplication_fixture_names()
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
    """How many processes run the walk: one per CPU this process may use.

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

    ``k`` gets each suite's check once per value that :func:`_reading`
    reads from a name, which is also what the check is given; the other
    names get renamed copies of those reports.
    """
    reports: list[CheckReport] = []
    done: dict[tuple[str, Hashable], list[CheckReport]] = {}
    for name in names:
        for suite in suites:
            reading = _reading(suite, name, k, user)
            if reading is None:
                continue
            first = done.get((suite, reading))
            if first is None:
                first = done[(suite, reading)] = _SUITES[suite](k, name, reading, seed, tol)
                reports += first
            else:
                reports += (_renamed(report, name) for report in first)
    return reports


# A report with its sort key and its line of the ``verify`` report stream.
_Entry = tuple[tuple[str, str], str, CheckReport]


def _encoded(report: CheckReport) -> _Entry:
    """``report`` with its key ``(theorem_id, input_hash())`` and its stream line."""
    line = json.dumps(report.to_dict(), default=str)
    return (report.theorem_id, report.input_hash()), line, report


def _check_shard(units: list) -> tuple[list[list[_Entry]], Exception | None]:
    """Each unit of ``units`` in order, one list of encoded reports per unit.

    A unit is called with no arguments and gives the reports to encode.
    Each unit leaves ``units`` as it is taken, so a group's complex and
    memo tables are dropped once it is done.  The walk stops at the first
    unit that raises, and returns that error beside the lists made before it.
    """
    units.reverse()
    done = []
    while units:
        unit = units.pop()
        try:
            done.append([_encoded(report) for report in unit()])
        except Exception as exc:  # handed to the parent, which raises it
            return done, exc
    return done, None


def _fork_shard(units: list, shard: int, workers: int) -> tuple[int, int]:
    """Fork a child that checks every ``workers``-th unit from ``shard`` on.

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

    def while_parent_lives(unit):
        # A parent ended by a signal cannot reap its children; they end too.
        if os.getppid() != parent:
            os._exit(code)
        return unit()

    try:
        os.close(read)
        mine = [functools.partial(while_parent_lives, unit) for unit in units[shard::workers]]
        units.clear()
        done, error = _check_shard(mine)
        try:
            head = pickle.dumps((len(done), error), pickle.HIGHEST_PROTOCOL)
            pickle.loads(head)
        except Exception as exc:  # an error that does not pickle, or not back
            head = pickle.dumps((len(done), WorkerError(f"{type(error).__name__}: {error} ({exc})")))
        with open(write, "wb") as pipe:
            pipe.write(head)
            pickler = pickle.Pickler(pipe, pickle.HIGHEST_PROTOCOL)
            for entries in done:
                pickler.dump(entries)
                # One pickle per unit keeps the reader's memo table small.
                pickler.clear_memo()
        code = 0
    finally:
        os._exit(code)


def _receive(read: int) -> tuple[list[list[_Entry]], Exception | None] | None:
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
) -> list[_Entry]:
    """The encoded reports of ``suites``, in the order of the units that made them.

    When a corpus suite is selected, the corpus names (and the user
    documents of ``extra``) are grouped by their object, in order of first
    appearance, and each group is a unit that gets every selected corpus
    suite's checks (:func:`_check_group`); each other suite's check, given
    the tolerance, is one unit after them.  The units are dealt in turn
    into one shard per worker (:func:`_worker_count`, never more than the
    units, so a lone non-corpus suite stays in this process).  This process
    checks shard 0 and a forked child checks each other shard; the lists
    come back in unit order, so the result does not depend on the number
    of workers.  Should a unit raise, the error of the first failing unit
    is raised, as in one process.
    """
    walked = [name for name in suites if name in _CORPUS_SUITES]
    units = []
    if walked:
        fixtures = corpus.full_corpus(seed, random_count)
        user = set(extra or ())
        fixtures.update(extra or {})
        by_id: dict[int, tuple[SimplicialComplex, list[str]]] = {}
        for name, k in fixtures.items():
            by_id.setdefault(id(k), (k, []))[1].append(name)
        fixtures.clear()
        units = [functools.partial(_check_group, k, names,
                                   suites=walked, user=user, seed=seed, tol=tol)
                 for k, names in by_id.values()]
        by_id.clear()
    units += (functools.partial(_SUITES[name], tol) for name in suites if name not in walked)
    n_units = len(units)
    workers = min(_worker_count(), n_units)
    children: dict[int, tuple[int, int]] = {}  # shard -> (pid, read end), until reaped
    outcomes = {}
    try:
        for shard in range(1, workers):
            try:
                children[shard] = _fork_shard(units, shard, workers)
            except OSError:  # no process to spare: this one checks the rest
                break
        own = {shard: units[shard::workers] for shard in range(workers) if shard not in children}
        units.clear()
        for shard in own:
            outcomes[shard] = _check_shard(own[shard])
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
    return [entry for index in range(n_units)
            for entry in outcomes[index % workers][0][index // workers]]


def _entries(
    names: Iterable[str],
    seed: int,
    extra: dict[str, SimplicialComplex] | None,
    tol: float,
    random_count: int,
) -> list[_Entry]:
    """The encoded reports of the requested suites, sorted on their keys."""
    selected = list(SUITES) if "all" in names else [n for n in SUITES if n in set(names)]
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    entries = _walk(selected, seed, extra, random_count, tol)
    # Each suite has its own theorem ids and each report names its input,
    # so the order of the walk does not change the sorted order.
    entries.sort(key=itemgetter(0))
    return entries


def run_suites(
    names: Iterable[str] = ("all",),
    seed: int = 0,
    extra: dict[str, SimplicialComplex] | None = None,
    tol: float = DEFAULT_VALUE_TOL,
    random_count: int = corpus.RANDOM_COUNT,
) -> list[CheckReport]:
    """Run the requested suites and return reports in deterministic order.

    Every selected suite runs in one walk (:func:`_walk`): the corpus
    suites (``families``, ``hodge``, ``bounds``, ``boundary``, ``regular``)
    share one unit per distinct complex of the corpus and of the user
    documents of ``extra``, in which each suite reads each name once
    (:func:`_reading`), and each other suite builds its own instances in a
    unit of its own.
    """
    return [report for _, _, report in _entries(names, seed, extra, tol, random_count)]
