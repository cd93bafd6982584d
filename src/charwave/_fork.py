"""Fork-join: run one function in a forked child while the caller goes on.

``join = start(nodes, fn, *args)`` and later ``join()`` return ``fn(*args)``
or raise its exception again, with the same type, ``args`` and attributes.
``fn`` runs in an ``os.fork()`` child only when ``forks(nodes)``, that is
when a fork is safe and pays for itself: on Linux, with no second Python
thread alive (a fork copies only the calling thread, so a lock another
thread holds would stay held in the child), and with ``nodes``, the
user-grid nodes of the caller's problem, at least ``FLOOR``.  Otherwise, or
when the fork itself fails, ``fn`` runs inside ``join()``.  Either way the
caller sees ``fn`` run after whatever it does between ``start`` and
``join``: the child shares nothing with the caller but what ``fn`` writes
to a shared mapping or a file set up before ``start``.

Only Python threads are counted.  A native thread the host started is not
seen, and one that holds a lock at the fork (and registers no
``pthread_atfork`` handler, as OpenBLAS's pool does) would leave the child,
and ``join`` with it, waiting for good.  Python 3.12 and later warn at a
fork while a second OS thread runs, a BLAS pool's included (a
DeprecationWarning); the warning is left to the caller's filters.

``join(cancel=True)`` is the caller's way out when its own part fails: the
child is killed and reaped (or ``fn`` never runs) and None is returned.
Every child is reaped before ``join`` returns or raises; one that ends
without a result (killed by a signal, say) raises CharwaveError naming how
it ended.  A result or error that cannot be pickled back (an instance of a
locally defined exception class, say) raises CharwaveError instead, naming
the error's type and message.
"""

from __future__ import annotations

import os
import sys
import threading

from .errors import CharwaveError

__all__ = ["forks", "start"]

# A fork, the child's exit and the waitpid cost 2.0-2.6 ms on a 2-vCPU Xeon,
# and each page the parent writes while the child lives is copied once.  A
# linear solve, one sweep per region, does the least work per node; it
# breaks even near this many user-grid nodes (measured in the README's
# "Library" section by in-process pairs; no benchmark workload runs below
# it).
FLOOR = 12_000


def _in_process(fn, args):
    return lambda cancel=False: None if cancel else fn(*args)


def forks(nodes: int) -> bool:
    """Whether ``start`` runs ``fn`` in a child for a problem of ``nodes``
    user-grid nodes (unless the fork itself fails)."""
    return (
        sys.platform.startswith("linux")
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and nodes >= FLOOR
    )


def start(nodes: int, fn, *args):
    """Start ``fn(*args)``; returns its ``join(cancel=False)``."""
    if not forks(nodes):
        return _in_process(fn, args)
    import pickle
    import signal

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run in this one
        os.close(read)
        os.close(write)
        return _in_process(fn, args)
    if pid == 0:  # the child; it never returns
        code = 1
        try:
            os.close(read)
            error = None
            try:
                outcome = (True, fn(*args))
            except BaseException as e:
                error = e
                outcome = (False, (type(e), e.args, vars(e)))
            try:
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as e:
                # name what is lost: a local exception class, say, cannot be pickled
                what = "its result" if error is None else f"{type(error).__qualname__}: {error}"
                message = f"the worker process could not send back {what} ({e!r})"
                data = pickle.dumps((False, (CharwaveError, (message,), {})))
            with open(write, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write)

    def join(cancel: bool = False):
        data = None
        try:
            with open(read, "rb") as pipe:
                if not cancel:
                    data = pipe.read()
        finally:
            if data is None:  # cancelled or interrupted: the outcome is not wanted
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        if cancel:
            return None
        if status:  # the child writes its outcome whole, then exits 0
            if os.WIFSIGNALED(status):
                sig = os.WTERMSIG(status)
                how = f"was killed by signal {sig} ({signal.strsignal(sig)})"
            else:
                how = f"exited with status {os.waitstatus_to_exitcode(status)}"
            raise CharwaveError(f"the worker process {how} before it sent a result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        kind, exc_args, attrs = value
        exc = kind.__new__(kind, *exc_args)  # no __init__: it may not take args
        exc.args = exc_args
        exc.__dict__.update(attrs)
        raise exc

    return join
