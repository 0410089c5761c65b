"""One function call in a forked child process, its result taken back
through a pipe.

``Worker(fn, args, name)`` forks; the child runs ``fn(*args)``, pickles the
return value, or the exception it raised, into the pipe and always ends
with ``os._exit``, so no cleanup of the parent's runs twice.  ``result()``
reads the pipe, reaps the child and returns the value or raises the
child's exception again, with its type, message and attributes and the
child's traceback as its cause.  ``kill()`` ends and reaps a child whose
result is no longer wanted.  This is plain ``os.fork``, ``os.pipe`` and
``pickle``: importing ``multiprocessing`` and ``concurrent.futures`` would
cost every process about 25 ms and 1 MB, whether it forks or not.

A fork copies only the calling thread.  The package starts no thread, and
the OpenBLAS thread pool that a caller gets by asking for more than one
BLAS thread is shut down before a fork by OpenBLAS's own ``pthread_atfork``
handler and started again when next needed; CI runs the forking tests
under one and two BLAS threads.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys


class WorkerDiedError(RuntimeError):
    """A worker ended without sending a result; carries its name and the
    wait status ``os.waitpid`` returned."""

    def __init__(self, name: str, status: int):
        self.name = name
        self.status = status
        if os.WIFSIGNALED(status):
            how = f"killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exit code {os.waitstatus_to_exitcode(status)}"
        super().__init__(f"worker for {name} ended without a result (wait status {status}: {how})")


class RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker, set as
    the cause of that exception when the parent raises it again."""

    def __str__(self):
        return "\n\n" + self.args[0]


def _reply(fn, args) -> bytes:
    """Pickled ``(True, fn(*args))``, or ``(False, exception, traceback)``
    when the call or the pickling of its result raises; an exception that
    cannot be pickled is sent as a RuntimeError naming it."""
    try:
        return pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # the parent raises it again
        import traceback  # only a failing child pays for the import

        text = traceback.format_exc()
        try:
            return pickle.dumps((False, exc, text), pickle.HIGHEST_PROTOCOL)
        except Exception:  # an attribute that pickle refuses, for one
            stand_in = RuntimeError(f"{type(exc).__qualname__}: {exc} (could not be pickled)")
            return pickle.dumps((False, stand_in, text), pickle.HIGHEST_PROTOCOL)


class Worker:
    """``fn(*args)`` running in a forked child; ``name`` labels its errors."""

    def __init__(self, fn, args: tuple, name: str):
        self.name = name
        # buffered output would otherwise be written again by the child
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:  # no child, so neither end has a reader
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                payload = _reply(fn, args)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid, self.fd = pid, read_fd

    def result(self):
        """Wait for the child; its return value, or its exception raised
        here, or WorkerDiedError when it sent neither."""
        chunks = []
        while chunk := os.read(self.fd, 1 << 16):
            chunks.append(chunk)
        os.close(self.fd)
        self.fd = None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0 or not chunks:
            raise WorkerDiedError(self.name, status)
        reply = pickle.loads(b"".join(chunks))
        if reply[0]:
            return reply[1]
        _, exc, text = reply
        raise exc from RemoteTraceback(text)

    def kill(self) -> None:
        """End the child if it still runs and reap it; a no-op once
        ``result()`` has reaped it."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
