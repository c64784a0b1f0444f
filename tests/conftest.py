"""Shared fixtures: small deterministic databases and derived structures."""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings

from repro.datasets.bibliographic import (
    generate_bibliographic_db,
    tiny_bibliographic_db,
)
from repro.datasets.events import tutorial_events_db
from repro.datasets.movies import generate_movie_db
from repro.datasets.products import generate_product_db
from repro.graph.data_graph import build_data_graph
from repro.index.inverted import InvertedIndex
from repro.resilience.failpoints import FAILPOINTS

#: ``--hypothesis-profile=ci``: the same examples on every run, three
#: times the default count, no per-example deadline (CI runners stall).
settings.register_profile("ci", max_examples=300, derandomize=True, deadline=None)

try:  # CI installs pytest-timeout; the local image may not have it.
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


@pytest.fixture(autouse=True)
def _clean_failpoints():
    """No test leaks armed failpoints into its neighbours."""
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


@pytest.fixture(autouse=True)
def _test_alarm():
    """Per-test wall-clock alarm when pytest-timeout is unavailable.

    A hung test (the failure mode this PR's budget/deadline machinery
    exists to prevent) should kill the test, not the CI job.  SIGALRM
    only fires on the main thread of Unix platforms; elsewhere this is
    a no-op and pytest-timeout (installed in CI) covers it.
    """
    seconds = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))
    usable = (
        not _HAVE_PYTEST_TIMEOUT
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded {seconds}s wall-clock alarm")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def tiny_db():
    return tiny_bibliographic_db()


@pytest.fixture(scope="session")
def biblio_db():
    return generate_bibliographic_db(seed=7)


@pytest.fixture(scope="session")
def movie_db():
    return generate_movie_db(seed=11)


@pytest.fixture(scope="session")
def product_db():
    return generate_product_db(seed=13)


@pytest.fixture(scope="session")
def events_db():
    return tutorial_events_db()


@pytest.fixture(scope="session")
def tiny_index(tiny_db):
    return InvertedIndex(tiny_db)


@pytest.fixture(scope="session")
def biblio_index(biblio_db):
    return InvertedIndex(biblio_db)


@pytest.fixture(scope="session")
def tiny_graph(tiny_db):
    return build_data_graph(tiny_db)


@pytest.fixture(scope="session")
def biblio_graph(biblio_db):
    return build_data_graph(biblio_db)
