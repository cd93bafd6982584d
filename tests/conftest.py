"""Shared fixtures: the problem corpus and session-cached solves."""

from __future__ import annotations

import os
import signal

import pytest

import charwave as cw

from helpers import CORPUS_NAMES, load_problem


@pytest.fixture(scope="session")
def corpus():
    return {name: load_problem(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def solved(corpus):
    """Every corpus problem solved once at its configured resolution."""
    return {
        name: cw.solve(spec, grid, picard)
        for name, (spec, grid, picard) in corpus.items()
    }


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child that ``os.fork`` starts during the test."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD ignored for the test, as a host may leave it: the kernel then
    reaps each child itself, and ``waitpid`` finds none."""
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, old)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or unreaped:
    every process charwave forks must be reaped before its call returns."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid}, status {status})")
