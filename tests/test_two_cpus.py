"""The split of equivalence sweeps and of report's tasks across two processes:
the same results, errors, stderr and exit code as one process, no process left
behind, and none left pinned to a CPU."""

import errno
import json
import marshal
import os
import threading
from functools import partial

import pytest

from ssmin import catalog, cli
from ssmin.cli import main
from ssmin.errors import BlowUp, DomainError, IllConditionedFit
from ssmin.pde import CaseId, equivalence_sweep
from ssmin.sampling import child_seed


def _cpus(monkeypatch, usable):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: usable)


@pytest.fixture
def two_cpus(monkeypatch):
    """Split the tasks across two processes, whatever CPUs this machine has."""
    _cpus(monkeypatch, {0, 1})


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("end", [
    partial(os._exit, 3), partial(os._exit, 0), _raise(DomainError("raised in the child only")),
    _raise(KeyboardInterrupt()),
], ids=["exit-3", "exit-0", "raise", "ctrl-c"])
def test_a_task_that_ends_the_child_alone_runs_every_task_here(two_cpus, capfd, end):
    here = os.getpid()

    def only_there():
        if os.getpid() != here:
            end()
        return 1
    # unflushed parent output must not be written twice, nor a child traceback at all
    print("written once", end="")
    assert cli._on_two_cpus([lambda: 0, only_there, lambda: 2]) == [0, 1, 2]
    _no_children_left()
    assert capfd.readouterr() == ("written once", "")


def test_a_ctrl_c_here_propagates_once_the_child_is_reaped(two_cpus):
    runs = []

    def interrupted():
        runs.append(os.getpid())
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        cli._on_two_cpus([interrupted, lambda: 1])
    _no_children_left()
    assert runs == [os.getpid()]  # not run again


def test_every_record_the_split_carries_survives_a_marshal_round_trip():
    # the child sends its records with marshal, which writes only plain types
    full, residual_only = (catalog.verify_auto(catalog.default_settings(fid)[0], 5, 1)
                           for fid in (catalog.FamilyId.F2_23, catalog.FamilyId.F3_10))
    assert full.mode == "full" and full.max_abs_numerator is not None
    assert residual_only.max_abs_numerator is None and residual_only.empty_reason
    sweep = equivalence_sweep(CaseId.L_M_II_III, 5, 1)
    ode_run = catalog.ode_reference_tasks(0.01)[0]()
    for rec in (full, residual_only, sweep, ode_run):
        record = cli._record(rec)
        back = marshal.loads(marshal.dumps(record))
        assert back == record and list(back) == list(record)
        assert json.dumps(back, indent=2) == json.dumps(record, indent=2)


def _open_fds() -> set[str]:
    """This process's open file descriptors, where /proc shows them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def test_a_refused_fork_runs_every_task_here(monkeypatch, capfd):
    argv = ["report", "--all", "--samples", "3", "--step", "0.01"]
    _cpus(monkeypatch, {0})
    in_process = main(argv), capfd.readouterr()

    def refused():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(cli.os, "fork", refused)
    _cpus(monkeypatch, {0, 1})
    before = _open_fds()
    assert (main(argv), capfd.readouterr()) == in_process
    assert _open_fds() == before
    assert in_process[0] == 0 and in_process[1].err == ""


def _split_and_in_process(monkeypatch, capfd, argv):
    """(exit code, (stdout, stderr)) of argv split across two processes, then in one."""
    _cpus(monkeypatch, {0, 1})
    split = main(argv), capfd.readouterr()
    _no_children_left()
    _cpus(monkeypatch, {0})
    return split, (main(argv), capfd.readouterr())


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
    case = list(CaseId)[index]
    _failing_sweep(monkeypatch, case, IllConditionedFit(f"sampler starved for case {case.value}"))
    argv = ["equivalence", "--all", "--samples", "500", "--seed", "3"]
    split, in_process = _split_and_in_process(monkeypatch, capfd, argv)
    assert split == in_process
    assert split == (1, ("", f"ssmin: IllConditionedFit: sampler starved for case {case.value}\n"))


def test_a_sweep_that_exits_ends_the_command_as_in_one_process(monkeypatch, capfd):
    _failing_sweep(monkeypatch, CaseId.E_M_II_III, SystemExit(5))  # task 1, the child's
    argv = ["equivalence", "--all", "--samples", "500"]
    ends = []
    for usable in ({0, 1}, {0}):
        _cpus(monkeypatch, usable)
        with pytest.raises(SystemExit) as ended:
            main(argv)
        _no_children_left()
        ends.append((ended.value.code, capfd.readouterr()))
    assert ends[0] == ends[1] == (5, ("", ""))


def test_split_and_in_process_outputs_are_byte_identical(monkeypatch, capfd):
    argv = ["equivalence", "--all", "--samples", "500", "--seed", "11",
            "--format", "markdown"]
    split, in_process = _split_and_in_process(monkeypatch, capfd, argv)
    assert split == in_process
    assert split[0] == 0 and split[1].err == ""


def test_report_split_and_in_process_outputs_are_byte_identical(monkeypatch, capfd):
    for fmt in ("json", "markdown"):
        argv = ["report", "--all", "--samples", "20", "--seed", "5", "--format", fmt]
        split, in_process = _split_and_in_process(monkeypatch, capfd, argv)
        assert split == in_process
        assert split[0] == 0 and split[1].err == ""


# report's tasks: 38 family checks (0-37), 7 sweeps (38-44), 10 ODE runs (45-54);
# this process runs the even-indexed ones and the child the odd-indexed ones
@pytest.mark.parametrize("index", [2, 3], ids=["parent-share", "child-share"])
def test_a_failing_family_check_in_report_gives_the_in_process_stderr_and_exit_code(
        monkeypatch, capfd, index):
    check = cli.verify_auto
    seed = child_seed(5, index)

    def failing(fam, n_samples, rng_seed, *args, **kwargs):
        if rng_seed == seed:
            raise DomainError(f"check {index} failed")
        return check(fam, n_samples, rng_seed, *args, **kwargs)
    monkeypatch.setattr(cli, "verify_auto", failing)
    argv = ["report", "--all", "--samples", "20", "--seed", "5"]
    split, in_process = _split_and_in_process(monkeypatch, capfd, argv)
    assert split == in_process
    assert split == (1, ("", f"ssmin: DomainError: check {index} failed\n"))


def test_a_failing_ode_run_in_report_gives_the_in_process_stderr_and_exit_code(
        monkeypatch, capfd):
    run = catalog._reference_run

    def failing(fid, which, *args):
        if (fid, which) == (catalog.FamilyId.F3_27, "f"):  # task 49, the child's
            raise BlowUp("F3_27: RK4 blew up", t=0.5)
        return run(fid, which, *args)
    monkeypatch.setattr(catalog, "_reference_run", failing)
    argv = ["report", "--all", "--samples", "20"]
    split, in_process = _split_and_in_process(monkeypatch, capfd, argv)
    assert split == in_process
    assert split == (1, ("", "ssmin: BlowUp: F3_27: RK4 blew up\n"))


def _counted_forks(monkeypatch) -> list[int]:
    """The pid of this process, once for each `os.fork` it calls."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(cli.os, "fork", counted)
    return forks


def test_report_forks_once_even_where_its_sweeps_reach_the_split_size(
        two_cpus, monkeypatch, capsys):
    forks = _counted_forks(monkeypatch)
    argv = ["report", "--all", "--samples", "500", "--step", "0.01"]
    assert main(argv) == 0
    assert forks == [os.getpid()]
    _no_children_left()


def test_equivalence_splits_at_any_sample_count(two_cpus, monkeypatch, capsys):
    # `_on_two_cpus` alone decides: one sample per sweep forks as 6000 do
    forks = _counted_forks(monkeypatch)
    assert main(["equivalence", "--all", "--samples", "1"]) == 0
    assert forks == [os.getpid()]
    _no_children_left()


def _recorded_moves(monkeypatch, fails=False):
    """The masks this process passes to os.sched_setaffinity (a forked child
    records into its own copy); each call raises OSError if fails."""
    moves = []
    move = os.sched_setaffinity

    def recorded(pid, mask):
        moves.append(set(mask))
        if fails:
            raise OSError(22, "Invalid argument")
        move(pid, mask)
    monkeypatch.setattr(cli.os, "sched_setaffinity", recorded)
    return moves


def test_each_process_starts_on_its_own_cpu_and_none_stays_pinned(monkeypatch):
    before = os.sched_getaffinity(0)
    usable = before if len(before) >= 2 else {0, 1}
    _cpus(monkeypatch, usable)
    moves = _recorded_moves(monkeypatch)
    results = cli._on_two_cpus([lambda: list(moves)] * 2)
    _no_children_left()
    assert results == [[{min(usable)}, usable], [{max(usable)}, usable]]
    monkeypatch.undo()
    assert os.sched_getaffinity(0) == before


def test_a_refused_move_costs_no_result(two_cpus, monkeypatch, capfd):
    moves = _recorded_moves(monkeypatch, fails=True)
    tasks = [lambda i=i: (i, os.getpid()) for i in range(7)]
    results = cli._on_two_cpus(tasks)
    assert [i for i, _ in results] == list(range(7))
    assert os.getpid() not in {pid for _, pid in results[1::2]}
    assert moves == [{0}, {0, 1}]  # this process tried, and went on where it was
    _no_children_left()
    assert capfd.readouterr() == ("", "")
