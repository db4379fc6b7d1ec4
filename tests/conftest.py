"""Session-scoped reference runs shared by the module and acceptance tests.

Each run fixture checks, when the session ends, that no test changed a
byte of the parameters it shares.
"""

import pytest

from lorentzseg import maskhead as mh
from lorentzseg import segtoy as st
from lorentzseg.reference import (
    EMBED_DIM,
    HELDOUT_CLASS,
    REFERENCE_MASK_HEAD,
    REFERENCE_MASK_TRAIN,
    REFERENCE_SCENE,
    REFERENCE_SCENE_BOUNDARY,
    REFERENCE_SCENE_NOISY,
    REFERENCE_TRAIN,
)


def _parameter_bytes(run):
    """The bytes of every parameter block of a TrainResult, the mask
    head's queries included."""
    return {name: block.tobytes() for name, block in run.params.items()}


def _shared(value, *runs):
    """Yield ``value``; at the end of the session, fail if any of ``runs``
    has changed a parameter byte."""
    before = [_parameter_bytes(run) for run in runs]
    yield value
    assert [_parameter_bytes(run) for run in runs] == before, "a test changed a shared run"


@pytest.fixture(scope="session")
def clean_scene():
    return st.generate_scene(REFERENCE_SCENE)


@pytest.fixture(scope="session")
def clean_bank(clean_scene):
    return st.DescriptorBank.fit(clean_scene, EMBED_DIM)


@pytest.fixture(scope="session")
def clean_run(clean_scene, clean_bank):
    run = st.train(clean_scene, clean_bank, REFERENCE_TRAIN)
    yield from _shared(run, run)


@pytest.fixture(scope="session")
def noisy_scene():
    return st.generate_scene(REFERENCE_SCENE_NOISY)


@pytest.fixture(scope="session")
def noisy_bank(noisy_scene):
    return st.DescriptorBank.fit(noisy_scene, EMBED_DIM)


@pytest.fixture(scope="session")
def noisy_run(noisy_scene, noisy_bank):
    run = st.train(noisy_scene, noisy_bank, REFERENCE_TRAIN)
    yield from _shared(run, run)


@pytest.fixture(scope="session")
def boundary_scene():
    return st.generate_scene(REFERENCE_SCENE_BOUNDARY)


@pytest.fixture(scope="session")
def boundary_run(boundary_scene):
    bank = st.DescriptorBank.fit(boundary_scene, EMBED_DIM)
    run = st.train(boundary_scene, bank, REFERENCE_TRAIN)
    yield from _shared(run, run)


@pytest.fixture(scope="session")
def heldout_runs(noisy_scene):
    bank = st.DescriptorBank.fit(noisy_scene, EMBED_DIM, exclude=(HELDOUT_CLASS,))
    hyp = st.train(noisy_scene, bank, REFERENCE_TRAIN, exclude_class=HELDOUT_CLASS)
    euc = st.train(noisy_scene, bank, REFERENCE_TRAIN, exclude_class=HELDOUT_CLASS, head="euclid")
    yield from _shared((bank, hyp, euc), hyp, euc)


@pytest.fixture(scope="session")
def mask_run(clean_scene, clean_bank):
    run = mh.train_maskhead(clean_scene, clean_bank, REFERENCE_MASK_HEAD, REFERENCE_MASK_TRAIN)
    yield from _shared(run, run)
