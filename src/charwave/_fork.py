"""Fork-join: two independent parts of a computation, one of them in a
forked child process where that pays.

``both(nodes, here, there)`` returns ``(here(), there())``.  ``there`` runs
in an ``os.fork()`` child, while ``here`` runs in this process, only when
``forks(nodes)``, that is when a fork is safe and pays for itself: on
Linux 5.3 or later (for pidfds, below), in a process that is not itself
such a child, with no second Python
thread alive (a fork copies only the calling thread, so a lock another
thread holds would stay held in the child), and with ``nodes``, the
user-grid nodes of the caller's problem, at least ``FLOOR``.  Otherwise, or
when the fork itself fails, ``there`` runs in this process after ``here``.
The child shares nothing with the caller but what ``there`` writes to a
shared mapping or a file set up before the call.

Only Python threads are counted.  A native thread the host started is not
seen, and one that holds a lock at the fork (and registers no
``pthread_atfork`` handler, as OpenBLAS's pool does) would leave the child,
and ``both`` with it, waiting for good.  Python 3.12 and later warn at a
fork while a second OS thread runs, a BLAS pool's included (a
DeprecationWarning); the warning is left to the caller's filters.

One rule holds either way: ``here`` runs first.  When ``here`` raises
anything (KeyboardInterrupt included), the child is killed and reaped, or
``there`` never runs, and ``here``'s error propagates; so when both parts
fail, ``here``'s error is the one raised.  Otherwise ``there``'s result is
returned, or its exception raised again with the same type, ``args`` and
attributes.  A result or error that cannot be pickled back (an instance of
a locally defined exception class, say) raises CharwaveError instead,
naming the error's type and message; a child that ends without a result
(killed by a signal, say) raises CharwaveError naming how it ended.  Every
child is reaped before ``both`` returns or raises, and a child never forks
again, so no process outlives the call.

Under a host that ignores SIGCHLD the kernel reaps the child itself.  The
child writes its outcome whole before it exits, so a whole outcome is still
taken; a missing or cut-off one raises CharwaveError saying that the exit
status was reaped elsewhere.  Such a reaped child's pid is free for another
process to take, so the child is killed through a pidfd taken right after
the fork, which names that child only, never by its pid.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

from .errors import CharwaveError

__all__ = ["both", "forks"]

# A fork, the child's exit and the waitpid cost 2.0-2.6 ms on a 2-vCPU Xeon,
# and each page the parent writes while the child lives is copied once.  A
# linear solve, one sweep per region, does the least work per node; it
# breaks even near this many user-grid nodes (measured in the README's
# "Library" section by in-process pairs; no benchmark workload runs below
# it).
FLOOR = 12_000

_in_child = False  # set in a forked child, which never forks again


def _has_pidfds() -> bool:
    """Whether this kernel gives pidfds, which ``both`` kills a child through."""
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):  # not Linux 5.3 or later
        return False
    return True


_PIDFDS = _has_pidfds()


def forks(nodes: int) -> bool:
    """Whether ``both`` runs ``there`` in a child for a problem of ``nodes``
    user-grid nodes (unless the fork itself fails)."""
    return (
        _PIDFDS
        and not _in_child
        and threading.active_count() == 1
        and nodes >= FLOOR
    )


def both(nodes: int, here, there):
    """``(here(), there())``, ``there`` in a forked child where ``forks(nodes)``."""
    global _in_child
    if not forks(nodes):
        return here(), there()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run in this one
        os.close(read)
        os.close(write)
        return here(), there()
    if pid == 0:  # the child; it never returns
        code = 1
        try:
            _in_child = True
            os.close(read)
            error = None
            try:
                outcome = (True, there())
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
    os.close(write)  # frees the descriptor the pidfd takes
    try:
        pidfd = os.pidfd_open(pid)
    except ProcessLookupError:  # ended, and reaped by the kernel (SIGCHLD is ignored)
        pidfd = None
    with open(read, "rb") as pipe:
        data = None
        try:
            mine = here()
            data = pipe.read()
        finally:
            if pidfd is not None:
                if data is None:  # here failed or was interrupted: there's outcome is not wanted
                    with contextlib.suppress(ProcessLookupError):  # ended already
                        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.close(pidfd)
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # SIGCHLD is ignored: the kernel reaped it
                status = None
    if status:  # the child writes its outcome whole, then exits 0
        if os.WIFSIGNALED(status):
            sig = os.WTERMSIG(status)
            how = f"was killed by signal {sig} ({signal.strsignal(sig)})"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise CharwaveError(f"the worker process {how} before it sent a result")
    try:
        ok, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # cut off: only without a status
        raise CharwaveError(
            "the worker process's exit status was reaped elsewhere (SIGCHLD is "
            "ignored) and it sent no whole result"
        ) from None
    if ok:
        return mine, value
    kind, exc_args, attrs = value
    exc = kind.__new__(kind, *exc_args)  # no __init__: it may not take args
    exc.args = exc_args
    exc.__dict__.update(attrs)
    raise exc
