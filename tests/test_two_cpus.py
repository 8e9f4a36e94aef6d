"""The split of equivalence sweeps across two processes: the same results,
errors, stderr and exit code as one process, and no process left behind."""

import inspect
import os
import pickle
import threading

import pytest

from ssmin import cli, errors
from ssmin.cli import main
from ssmin.errors import BlowUp, DomainError, IllConditionedFit, VerifierError
from ssmin.pde import CaseId

_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


def _cpus(monkeypatch, usable):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: usable)


@pytest.fixture
def two_cpus(monkeypatch):
    """Split the tasks across two processes, whatever CPUs this machine has."""
    _cpus(monkeypatch, {0, 1})


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_error_class_survives_a_pickle_round_trip():
    assert len(_ERRORS) == 12
    for cls in _ERRORS:
        exc = cls("at u=1.5: what went wrong")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
    back = pickle.loads(pickle.dumps(BlowUp("blew up", t=0.25)))
    assert (str(back), back.t) == ("blew up", 0.25)


def test_results_come_back_in_task_order(two_cpus, capfd):
    tasks = [lambda i=i: (i, os.getpid()) for i in range(7)]
    results = cli._on_two_cpus(tasks)
    assert [i for i, _ in results] == list(range(7))
    assert {pid for _, pid in results[::2]} == {os.getpid()}
    assert os.getpid() not in {pid for _, pid in results[1::2]}
    _no_children_left()
    assert capfd.readouterr() == ("", "")


def test_one_cpu_runs_every_task_here(monkeypatch):
    _cpus(monkeypatch, {1})
    assert cli._on_two_cpus([os.getpid] * 3) == [os.getpid()] * 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")  # as on macOS
    assert cli._on_two_cpus([os.getpid] * 3) == [os.getpid()] * 3


def test_no_fork_beside_another_thread(two_cpus):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert cli._on_two_cpus([os.getpid] * 3) == [os.getpid()] * 3
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert cli._on_two_cpus([os.getpid] * 3)[1] != os.getpid()
    _no_children_left()


def test_sweeps_below_the_split_size_stay_in_this_process(two_cpus, monkeypatch, capsys):
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(cli.os, "fork", fork)
    argv = ["equivalence", "--all", "--samples", str(cli.SPLIT_SAMPLES - 1)]
    assert main(argv) == 0
    with pytest.raises(AssertionError, match="forked"):
        main(argv[:-1] + [str(cli.SPLIT_SAMPLES)])


def _raise(exc):
    def task():
        raise exc
    return task


@pytest.mark.parametrize("failing,expected", [
    ({2: DomainError("parent's"), 3: DomainError("child's")}, "parent's"),
    ({3: DomainError("child's"), 4: DomainError("parent's")}, "child's"),
    ({5: DomainError("child's")}, "child's"),
    ({0: DomainError("parent's"), 1: BlowUp("child's", t=2.0)}, "parent's"),
], ids=["parent-first", "child-first", "child-only", "first-task"])
def test_the_first_error_in_task_order_is_raised(two_cpus, capfd, failing, expected):
    tasks = [_raise(failing[i]) if i in failing else (lambda i=i: i) for i in range(7)]
    with pytest.raises(DomainError, match=expected):
        cli._on_two_cpus(tasks)
    _no_children_left()
    assert capfd.readouterr() == ("", "")


def test_a_child_that_ends_without_results_is_a_typed_error(two_cpus, capfd):
    # unflushed parent output must not be written twice, nor a child traceback at all
    print("written once", end="")
    with pytest.raises(VerifierError, match=r"ended without sending their results "
                                            r"\(exit code 3\)"):
        cli._on_two_cpus([lambda: 0, lambda: os._exit(3), lambda: 2])
    with pytest.raises(VerifierError, match=r"\(exit code 1\)"):
        cli._on_two_cpus([lambda: 0, _raise(KeyboardInterrupt())])
    _no_children_left()
    assert capfd.readouterr() == ("written once", "")


def _failing_sweep(monkeypatch, case, exc):
    sweep = cli.equivalence_sweep

    def failing(this, *args):
        if this is case:
            raise exc
        return sweep(this, *args)
    monkeypatch.setattr(cli, "equivalence_sweep", failing)


@pytest.mark.parametrize("index", [2, 3], ids=["parent-share", "child-share"])
def test_a_failing_sweep_gives_the_in_process_stderr_and_exit_code(
        monkeypatch, capfd, index):
    _cpus(monkeypatch, {0, 1})
    case = list(CaseId)[index]
    _failing_sweep(monkeypatch, case, IllConditionedFit(f"sampler starved for case {case.value}"))
    argv = ["equivalence", "--all", "--samples", str(cli.SPLIT_SAMPLES), "--seed", "3"]
    split = main(argv), capfd.readouterr()
    _no_children_left()
    _cpus(monkeypatch, {0})
    assert split == (main(argv), capfd.readouterr())
    assert split[0] == 1
    assert split[1] == ("", f"ssmin: IllConditionedFit: sampler starved for case {case.value}\n")


def test_a_lost_sweep_process_is_a_typed_error(two_cpus, monkeypatch, capfd):
    _failing_sweep(monkeypatch, CaseId.E_M_II_III, SystemExit(5))
    argv = ["equivalence", "--all", "--samples", str(cli.SPLIT_SAMPLES)]
    assert main(argv) == 1
    _no_children_left()
    out, err = capfd.readouterr()
    assert out == ""
    assert err == ("ssmin: VerifierError: the process running tasks 1, 3, ... of 7 ended "
                   "without sending their results (exit code 1)\n")


def test_split_and_in_process_outputs_are_byte_identical(monkeypatch, capfd):
    _cpus(monkeypatch, {0, 1})
    argv = ["equivalence", "--all", "--samples", str(cli.SPLIT_SAMPLES), "--seed", "11",
            "--format", "markdown"]
    split = main(argv), capfd.readouterr()
    _no_children_left()
    _cpus(monkeypatch, {0})
    assert split == (main(argv), capfd.readouterr())
    assert split[0] == 0 and split[1].err == ""
