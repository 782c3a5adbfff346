"""Synthetic supernova model."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from repro.data.synthetic import VARIABLES, SupernovaModel, _gaussian_smooth, supernova_field
from repro.utils.errors import ConfigError


class TestSupernovaModel:
    def test_deterministic_in_seed(self):
        a = SupernovaModel((12, 12, 12), seed=1).field("vx")
        b = SupernovaModel((12, 12, 12), seed=1).field("vx")
        c = SupernovaModel((12, 12, 12), seed=2).field("vx")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_time_evolves_structure(self):
        a = SupernovaModel((12, 12, 12), time=0.0).field("density")
        b = SupernovaModel((12, 12, 12), time=1.0).field("density")
        assert not np.array_equal(a, b)

    def test_all_five_variables(self):
        m = SupernovaModel((8, 8, 8))
        fields = {v: m.field(v) for v in VARIABLES}
        assert set(fields) == set(VARIABLES)
        for f in fields.values():
            assert f.shape == (8, 8, 8)
            assert f.dtype == np.float32
            assert np.all(np.isfinite(f))

    def test_velocity_signed_antisymmetric_lobes(self):
        """The velocity components have both signs (the Fig. 1 look)."""
        vx = SupernovaModel((24, 24, 24)).field("vx")
        assert vx.min() < -0.05
        assert vx.max() > 0.05

    def test_density_positive(self):
        d = SupernovaModel((16, 16, 16)).field("density")
        assert d.min() > 0

    def test_exterior_quieter_than_interior(self):
        m = SupernovaModel((32, 32, 32))
        p = m.field("pressure")
        corner = abs(p[:3, :3, :3]).mean()
        center = abs(p[13:19, 13:19, 13:19]).mean()
        assert center > 2 * corner

    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigError):
            SupernovaModel((8, 8, 8)).field("temperature")

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SupernovaModel((8, 8, 8), seed=seed)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected_at_construction(self, time):
        with pytest.raises(ConfigError, match="time"):
            SupernovaModel((8, 8, 8), time=time)

    def test_value_range_brackets_data(self):
        m = SupernovaModel((16, 16, 16))
        for v in VARIABLES:
            lo, hi = m.value_range(v)
            f = m.field(v)
            assert lo <= f.min() and f.max() <= hi + 0.3

    def test_convenience_wrapper(self):
        f = supernova_field((8, 8, 8), "vy", seed=3)
        assert f.shape == (8, 8, 8)

    def test_anisotropic_grid(self):
        f = SupernovaModel((8, 12, 16)).field("vz")
        assert f.shape == (8, 12, 16)


#: (grid, seed, time) -> variable -> sha256[:16] of the float32 field
#: bytes.  Every rendered pixel and written file starts here, so any
#: change to the synthesizer's arithmetic must leave these unedited.
FIELD_DIGESTS = {
    ((16, 16, 16), 99, 0.3): {
        "pressure": "93b94784fdbb2c84",
        "density": "37f985adaa3489a6",
        "vx": "e6bedefd07dade25",
        "vy": "a42c11021f17d444",
        "vz": "a082bba44d8ca845",
    },
    ((48, 48, 48), 1530, 0.3): {
        "pressure": "a5e94ebcdaa3f84e",
        "density": "a517ef424c2fd9fe",
        "vx": "5ba4fe7b89cd54e3",
        "vy": "35bf0cf5b156fdb6",
        "vz": "225d17db86c2cc31",
    },
    ((64, 64, 64), 1530, 0.5): {
        "pressure": "1be8dd56136b2f29",
        "density": "cbe7089055f481ab",
        "vx": "7871f0f95e65c534",
        "vy": "a3928376c59dd1ac",
        "vz": "39487d7901de723f",
    },
    ((12, 20, 36), 7, 1.1): {
        "pressure": "b807c9de20ca370b",
        "density": "c53482eb984d2ec1",
        "vx": "03f3b395e0e7522c",
        "vy": "d672ef6a0c9d860d",
        "vz": "0f60013116b24af8",
    },
}


@pytest.mark.parametrize("grid, seed, time", list(FIELD_DIGESTS))
def test_field_bytes_pinned(grid, seed, time):
    model = SupernovaModel(grid, seed=seed, time=time)
    got = {v: hashlib.sha256(model.field(v).tobytes()).hexdigest()[:16] for v in VARIABLES}
    assert got == FIELD_DIGESTS[(grid, seed, time)]


@settings(deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 40)] * 3),
    # The synthesizer's floor and its 64^3 value, a short kernel, and
    # one whose radius (44) is longer than any drawn axis.
    sigma=st.sampled_from([2.0, 64 / 28, 0.6, 11.0]),
    seed=st.integers(0, 2**16),
)
@example(shape=(1, 1, 1), sigma=2.0, seed=0)
def test_gaussian_smooth_is_scipys_bit_for_bit(shape, sigma, seed):
    noise = np.random.default_rng(seed).standard_normal(shape)
    want = ndimage.gaussian_filter(noise, sigma=sigma, mode="nearest")
    got = _gaussian_smooth(noise, sigma)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
