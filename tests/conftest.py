"""Session-scoped reference runs shared by the module and acceptance tests."""

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


@pytest.fixture(scope="session")
def clean_scene():
    return st.generate_scene(REFERENCE_SCENE)


@pytest.fixture(scope="session")
def clean_bank(clean_scene):
    return st.DescriptorBank.fit(clean_scene, EMBED_DIM)


@pytest.fixture(scope="session")
def clean_run(clean_scene, clean_bank):
    return st.train(clean_scene, clean_bank, REFERENCE_TRAIN)


@pytest.fixture(scope="session")
def noisy_scene():
    return st.generate_scene(REFERENCE_SCENE_NOISY)


@pytest.fixture(scope="session")
def noisy_bank(noisy_scene):
    return st.DescriptorBank.fit(noisy_scene, EMBED_DIM)


@pytest.fixture(scope="session")
def noisy_run(noisy_scene, noisy_bank):
    return st.train(noisy_scene, noisy_bank, REFERENCE_TRAIN)


@pytest.fixture(scope="session")
def boundary_scene():
    return st.generate_scene(REFERENCE_SCENE_BOUNDARY)


@pytest.fixture(scope="session")
def boundary_run(boundary_scene):
    bank = st.DescriptorBank.fit(boundary_scene, EMBED_DIM)
    return st.train(boundary_scene, bank, REFERENCE_TRAIN)


@pytest.fixture(scope="session")
def heldout_runs(noisy_scene):
    bank = st.DescriptorBank.fit(noisy_scene, EMBED_DIM, exclude=(HELDOUT_CLASS,))
    hyp = st.train(noisy_scene, bank, REFERENCE_TRAIN, exclude_class=HELDOUT_CLASS)
    euc = st.train(noisy_scene, bank, REFERENCE_TRAIN, exclude_class=HELDOUT_CLASS, head="euclid")
    return bank, hyp, euc


@pytest.fixture(scope="session")
def mask_run(clean_scene, clean_bank):
    return mh.train_maskhead(
        clean_scene, clean_bank, REFERENCE_MASK_HEAD, REFERENCE_MASK_TRAIN
    )
