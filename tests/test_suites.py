"""The walk on several processes: one stream, every unit once, no child left."""

import json
import os
import signal
import threading

import pytest

from hodgelap import corpus, suites
from hodgelap.cli import EXIT_BAD_DOCUMENT, EXIT_NUMERIC, cli_main
from hodgelap.core import from_facets
from hodgelap.errors import NumericError, WorkerError
from hodgelap.suites import run_suites
from hodgelap.theorems import CheckReport


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stream(reports):
    return "\n".join(json.dumps(r.to_dict(), default=str) for r in reports)


def _groups(seed, random_count):
    """The name lists of the distinct corpus complexes, in walk order."""
    by_id = {}
    for name, k in corpus.full_corpus(seed, random_count).items():
        by_id.setdefault(id(k), []).append(name)
    return list(by_id.values())


@pytest.fixture
def workers(monkeypatch):
    """Set how many processes run the walk."""
    return lambda n: monkeypatch.setattr(suites, "_worker_count", lambda: n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_and_two_workers_give_one_stream(seed, workers):
    workers(1)
    alone = _stream(run_suites(["all"], seed=seed))
    workers(2)
    assert _stream(run_suites(["all"], seed=seed)) == alone
    _no_child_left()


def test_a_user_document_gets_one_stream_on_any_number_of_workers(workers):
    def run():
        extra = {"user-t": from_facets([[0, 1, 2], [1, 2, 3], [3, 4]])}
        return _stream(run_suites(["all"], extra=extra, random_count=3))

    workers(1)
    alone = run()
    assert '"complex": "user-t"' in alone
    for n in (2, 3):
        workers(n)
        assert run() == alone, n
    _no_child_left()


@pytest.mark.parametrize("names", [["wedge"], ["join"], ["duplication"],
                                   ["wedge", "join", "duplication"]])
def test_the_other_suites_get_one_stream_on_any_number_of_workers(names, workers):
    workers(1)
    alone = [r.to_dict() for r in run_suites(names)]
    assert alone
    for n in (2, 3):
        workers(n)
        assert [r.to_dict() for r in run_suites(names)] == alone, n
    _no_child_left()


def test_verify_prints_one_stream_on_any_number_of_workers(workers, capsys):
    streams = []
    for n in (1, 2, 3):
        workers(n)
        assert cli_main(["verify", "--suite", "all", "--seed", "0"]) == 0
        streams.append(capsys.readouterr())
        _no_child_left()
    assert streams[0].out.count("\n") == 2486
    assert streams[0].err == "verify: 2486 checks, 0 failed, 40 not applicable\n"
    assert streams[1] == streams[0] and streams[2] == streams[0]


@pytest.mark.parametrize("suite", ["join", "wedge"])
def test_a_lone_non_corpus_suite_stays_in_this_process(suite, workers, monkeypatch, capsys):
    forks = []

    def fork():
        forks.append(os.getpid())
        raise AssertionError("forked")

    def full_corpus(*args):
        raise AssertionError("built the corpus")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(corpus, "full_corpus", full_corpus)
    workers(3)
    assert cli_main(["verify", "--suite", suite, "--seed", "0"]) == 0
    assert capsys.readouterr().out
    assert forks == []


def test_every_group_lands_in_exactly_one_shard(workers, monkeypatch):
    # Each group's reports carry the pid of the process that checked it.
    check = suites._check_group

    def tagged(k, names, **kwargs):
        probe = CheckReport("shard-probe", {"complex": names[0], "pid": os.getpid()})
        return check(k, names, **kwargs) + [probe]

    monkeypatch.setattr(suites, "_check_group", tagged)
    workers(3)
    reports = run_suites(["hodge"], random_count=4)
    _no_child_left()
    pid_of = {r.inputs["complex"]: r.inputs["pid"] for r in reports if r.theorem_id == "shard-probe"}
    groups = _groups(0, 4)
    assert len(pid_of) == sum(r.theorem_id == "shard-probe" for r in reports) == len(groups)
    pids = [pid_of[names[0]] for names in groups]
    assert pids[0] == os.getpid()
    assert len(set(pids[:3])) == 3
    assert pids == [pids[index % 3] for index in range(len(groups))]
    hodge = sorted(r.inputs["complex"] for r in reports if r.theorem_id != "shard-probe")
    assert hodge == sorted(name for names in groups for name in names)


def test_a_failed_fork_leaves_the_shard_to_this_process(workers, monkeypatch):
    workers(1)
    alone = _stream(run_suites(["hodge", "boundary"], random_count=3))

    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing)
    workers(3)
    assert _stream(run_suites(["hodge", "boundary"], random_count=3)) == alone
    _no_child_left()


def test_a_process_with_other_threads_does_not_fork():
    counts, release = [], threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        counts.append(suites._worker_count())
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert counts == [1]
    assert suites._worker_count() == len(os.sched_getaffinity(0))


def _fail_in(monkeypatch, where, error, check="check_hodge_and_duality"):
    """Make ``check`` raise ``error()`` in the child only or in this process only."""
    parent = os.getpid()
    original = getattr(suites, check)

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            error()
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, check, failing)


def _numeric():
    raise NumericError("eigensolver failed: forced")


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_numeric_error_in_one_worker_exits_3(where, workers, monkeypatch, capsys):
    _fail_in(monkeypatch, where, _numeric)
    workers(2)
    code = cli_main(["verify", "--suite", "hodge", "--random-count", "0"])
    out, err = capsys.readouterr()
    _no_child_left()
    assert code == EXIT_NUMERIC and out == ""
    assert err == "numeric error: eigensolver failed: forced\n"


def test_a_numeric_error_in_a_suite_unit_of_a_child_exits_3(workers, monkeypatch, capsys):
    # With --suite all the units are the corpus groups, then wedge, join
    # and duplication; deal join to a child.
    join = len(_groups(0, 0)) + 1
    n = next(n for n in (2, 3, 4) if join % n)
    _fail_in(monkeypatch, "child", _numeric, check="check_join")
    workers(n)
    code = cli_main(["verify", "--suite", "all", "--random-count", "0"])
    out, err = capsys.readouterr()
    _no_child_left()
    assert code == EXIT_NUMERIC and out == ""
    assert err == "numeric error: eigensolver failed: forced\n"


def test_a_child_killed_by_a_signal_exits_2(workers, monkeypatch, capsys):
    _fail_in(monkeypatch, "child", lambda: os.kill(os.getpid(), signal.SIGKILL))
    workers(2)
    code = cli_main(["verify", "--suite", "hodge", "--random-count", "0"])
    out, err = capsys.readouterr()
    _no_child_left()
    assert code == EXIT_BAD_DOCUMENT and out == ""
    assert err == f"error: a corpus worker was killed by signal {int(signal.SIGKILL)}\n"


def test_an_interrupt_in_this_process_ends_every_child(workers, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    _fail_in(monkeypatch, "parent", interrupt)
    workers(3)
    with pytest.raises(KeyboardInterrupt):
        run_suites(["hodge"], random_count=0)
    _no_child_left()


class _TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_error_that_does_not_unpickle_comes_back_as_text(workers, monkeypatch):
    def raise_two():
        raise _TwoArgumentError("left", "right")

    _fail_in(monkeypatch, "child", raise_two)
    workers(2)
    with pytest.raises(WorkerError, match="^_TwoArgumentError: left and right "):
        run_suites(["hodge"], random_count=0)
    _no_child_left()


def test_the_first_failing_group_names_the_error_on_any_number_of_workers(workers, monkeypatch):
    # Groups 5 and 6 fail; with two workers the child meets group 5 and
    # this process group 6, and the error of group 5 wins, as in one process.
    failing = {names[0] for names in _groups(0, 0)[5:7]}
    check = suites.check_hodge_and_duality

    def fail_some(k, name, **kwargs):
        if name in failing:
            raise NumericError(f"eigensolver failed on {name}")
        return check(k, name, **kwargs)

    monkeypatch.setattr(suites, "check_hodge_and_duality", fail_some)
    messages = []
    for n in (1, 2, 3):
        workers(n)
        with pytest.raises(NumericError) as info:
            run_suites(["hodge"], random_count=0)
        messages.append(str(info.value))
        _no_child_left()
    assert messages == [f"eigensolver failed on {_groups(0, 0)[5][0]}"] * 3



def test_a_failing_group_wins_over_a_later_failing_suite_unit(workers, monkeypatch):
    # The last corpus group and the join unit after it fail; they land in
    # different shards on two and three workers, in one on one worker.
    last = _groups(0, 0)[-1][0]
    check = suites.check_hodge_and_duality

    def fail_last(k, name, **kwargs):
        if name == last:
            raise NumericError(f"eigensolver failed on {name}")
        return check(k, name, **kwargs)

    def fail_join(*args, **kwargs):
        raise NumericError("eigensolver failed on a join")

    monkeypatch.setattr(suites, "check_hodge_and_duality", fail_last)
    monkeypatch.setattr(suites, "check_join", fail_join)
    messages = []
    for n in (1, 2, 3):
        workers(n)
        with pytest.raises(NumericError) as info:
            run_suites(["hodge", "join"], random_count=0)
        messages.append(str(info.value))
        _no_child_left()
    assert messages == [f"eigensolver failed on {last}"] * 3
