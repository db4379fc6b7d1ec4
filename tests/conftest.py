"""The session's reference runs, shared by the module and acceptance tests.

One session fixture holds the lazy mapping of tests/reference_runs.py, so
each run trains at most once per session and only if a test reads it.
When the session ends, it fails if a test changed a byte of the
parameters of a trained run.  The clean_* fixtures are views of it.
"""

import pytest

from reference_runs import ReferenceRuns


@pytest.fixture(scope="session")
def reference_runs():
    runs = ReferenceRuns()
    # the held-out bank is fit without one class, so it is one rank short
    with pytest.warns(UserWarning, match="keeping 7"):
        runs.bank("heldout-hyp")
    yield runs
    assert not runs.changed(), f"a test changed a shared run: {runs.changed()}"


@pytest.fixture(scope="session")
def clean_scene(reference_runs):
    return reference_runs.scene("clean")


@pytest.fixture(scope="session")
def clean_bank(reference_runs):
    return reference_runs.bank("clean")


@pytest.fixture(scope="session")
def clean_run(reference_runs):
    return reference_runs["clean"]
