"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data.synthetic import SupernovaModel
from repro.render.camera import Camera
from repro.render.transfer import TransferFunction

# Tier-1 is a gate built on bitwise pins, so it must draw the same
# examples on every run: derandomised, no example database.  The CI
# ``explore`` job selects the other profile (random seeds, more
# examples, database kept as an artifact); every find becomes an
# ``@example`` or its own test in the PR that fixes it.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid() -> tuple[int, int, int]:
    return (16, 16, 16)


@pytest.fixture
def supernova(small_grid) -> SupernovaModel:
    return SupernovaModel(small_grid, seed=99, time=0.3)


@pytest.fixture
def small_camera(small_grid) -> Camera:
    return Camera.looking_at_volume(small_grid, width=40, height=32)


@pytest.fixture
def gray_tf() -> TransferFunction:
    return TransferFunction.grayscale_ramp()
