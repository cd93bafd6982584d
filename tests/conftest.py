"""Shared fixtures: the problem corpus and session-cached solves."""

from __future__ import annotations

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
