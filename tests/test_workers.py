"""Forked workers: a result, an exception and a death come back to the
parent, a failed fork leaks no pipe, and the package's errors survive the
pickle between them."""

import os
import pickle
import signal
import sys
import time

import pytest

from lastlayer.data import CsvFormatError
from lastlayer.linalg import NotPositiveDefiniteError
from lastlayer.train import PostTrainingDivergedError, TrainingDivergedError
from lastlayer.workers import RemoteTraceback, Worker, WorkerDiedError

# compare forks its workers from a process whose OpenBLAS may hold a thread
# pool, and a worker forked while that pool holds a lock could hang
pytestmark = pytest.mark.blas_threads


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def print_flushed(text):
    print(text, flush=True)


def raise_it(exc):
    raise exc


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.fn = lambda: None


@pytest.mark.parametrize("exc, attributes", [
    (CsvFormatError("bad", 4, 2), {"message": "bad", "line": 4, "column": 2}),
    (CsvFormatError("empty file", 1), {"message": "empty file", "line": 1, "column": None}),
    (TrainingDivergedError(7), {"iteration": 7}),
    (PostTrainingDivergedError(7), {"iteration": 7}),
    (NotPositiveDefiniteError(3), {"pivot_index": 3}),
])
def test_errors_survive_a_pickle_round_trip(exc, attributes):
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is type(exc)
    assert str(again) == str(exc)
    for name, value in attributes.items():
        assert getattr(again, name) == value


class TestWorker:
    def test_returns_the_result(self):
        assert Worker(divmod, (17, 5), "divmod").result() == (3, 2)
        assert_no_child_left()

    def test_raises_the_childs_exception_with_its_traceback(self):
        worker = Worker(raise_it, (TrainingDivergedError(12),), "diverging")
        with pytest.raises(TrainingDivergedError) as err:
            worker.result()
        assert err.value.iteration == 12
        assert str(err.value) == str(TrainingDivergedError(12))
        assert isinstance(err.value.__cause__, RemoteTraceback)
        assert "raise_it" in str(err.value.__cause__)
        assert_no_child_left()

    def test_an_unpicklable_exception_comes_back_named(self):
        with pytest.raises(RuntimeError, match="Unpicklable: holds a lambda"):
            Worker(raise_it, (Unpicklable(),), "unpicklable").result()
        assert_no_child_left()

    def test_a_worker_that_dies_names_itself_and_its_wait_status(self):
        with pytest.raises(WorkerDiedError, match=r"seed 3, checkpoint 20 .*exit code 7") as err:
            Worker(os._exit, (7,), "seed 3, checkpoint 20").result()
        assert os.waitstatus_to_exitcode(err.value.status) == 7
        worker = Worker(lambda: os.kill(os.getpid(), signal.SIGKILL), (), "killed")
        with pytest.raises(WorkerDiedError, match="killed by signal 9"):
            worker.result()
        assert_no_child_left()

    def test_kill_ends_a_running_worker(self):
        start = time.monotonic()
        worker = Worker(time.sleep, (60,), "sleeper")
        worker.kill()
        worker.kill()  # a second kill is a no-op
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_buffered_output_is_not_written_twice(self, tmp_path, monkeypatch):
        # the child flushes its copy of stdout, which would hold the
        # parent's buffered text had the parent not flushed before forking
        path = tmp_path / "out.txt"
        with open(path, "w", encoding="utf-8") as buffered:
            monkeypatch.setattr(sys, "stdout", buffered)
            print("before the fork", end="")
            Worker(print_flushed, ("from the child",), "printing").result()
        assert path.read_text(encoding="utf-8") == "before the forkfrom the child\n"

    def test_a_failed_fork_closes_the_pipe(self, monkeypatch):
        opened = []
        pipe = os.pipe

        def recording_pipe():
            opened.extend(pipe())
            return tuple(opened)

        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises(BlockingIOError):
            Worker(divmod, (17, 5), "unforked")
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)
