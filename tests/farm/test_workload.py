"""Session kinds, arrival streams, and workload determinism."""

import numpy as np
import pytest

from repro.farm.workload import SessionSpec, Workload
from repro.utils.errors import ConfigError


class TestSessionKinds:
    def test_browse_cycles_steps(self):
        spec = SessionSpec(name="s", kind="browse", requests=10, steps=4)
        steps = [spec.request(i).step for i in range(10)]
        assert steps == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_browse_revisits_share_frame_key(self):
        spec = SessionSpec(name="s", kind="browse", requests=8, steps=4)
        assert spec.request(0).frame_key == spec.request(4).frame_key
        assert spec.request(0).frame_key != spec.request(1).frame_key

    def test_orbit_advances_azimuth(self):
        spec = SessionSpec(name="s", kind="orbit", requests=5, orbit_deg=30.0)
        az = [spec.request(i).azimuth_deg for i in range(5)]
        assert az == [30.0, 60.0, 90.0, 120.0, 150.0]
        assert all(spec.request(i).step == 0 for i in range(5))

    def test_orbit_wraps_and_revisits(self):
        spec = SessionSpec(name="s", kind="orbit", requests=30, orbit_deg=45.0)
        assert spec.request(0).frame_key == spec.request(8).frame_key

    def test_multivar_alternates_variables(self):
        spec = SessionSpec(
            name="s", kind="multivar", requests=6, steps=3,
            variables=("pressure", "density"),
        )
        got = [(spec.request(i).step, spec.request(i).variable) for i in range(6)]
        assert got == [
            (0, "pressure"), (0, "density"),
            (1, "pressure"), (1, "density"),
            (2, "pressure"), (2, "density"),
        ]

    def test_cross_session_same_frame(self):
        a = SessionSpec(name="a", kind="browse", requests=4, steps=4)
        b = SessionSpec(name="b", kind="browse", requests=4, steps=4)
        assert a.request(2).frame_key == b.request(2).frame_key
        assert a.request(2).rid != b.request(2).rid


class TestArrivals:
    def test_open_interarrivals_deterministic(self):
        spec = SessionSpec(name="s", arrival="open", requests=20, rate_hz=0.5)
        a = spec.interarrivals(7)
        b = spec.interarrivals(7)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (20,)
        assert (a > 0).all()

    def test_seed_and_name_shift_streams(self):
        spec = SessionSpec(name="s", arrival="open", requests=20, rate_hz=0.5)
        other = SessionSpec(name="t", arrival="open", requests=20, rate_hz=0.5)
        assert not np.array_equal(spec.interarrivals(7), spec.interarrivals(8))
        assert not np.array_equal(spec.interarrivals(7), other.interarrivals(7))

    def test_open_rate_sets_the_mean(self):
        spec = SessionSpec(name="s", arrival="open", requests=4000, rate_hz=0.25)
        assert np.mean(spec.interarrivals(3)) == pytest.approx(4.0, rel=0.1)

    def test_closed_think_times(self):
        spec = SessionSpec(name="s", arrival="closed", requests=10, think_s=2.0)
        t = spec.think_times(5)
        assert t.shape == (10,)
        assert (t >= 0).all()
        zero = SessionSpec(name="z", arrival="closed", requests=10, think_s=0.0)
        assert not zero.think_times(5).any()


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            SessionSpec(name="s", kind="doomscroll")

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ConfigError, match="arrival"):
            SessionSpec(name="s", arrival="psychic")

    def test_open_needs_positive_rate(self):
        with pytest.raises(ConfigError, match="rate_hz"):
            SessionSpec(name="s", arrival="open", rate_hz=0.0)

    def test_workload_rejects_duplicate_names(self):
        spec = SessionSpec(name="s")
        with pytest.raises(ConfigError, match="duplicate"):
            Workload(sessions=(spec, spec))

    def test_workload_counts_requests(self):
        w = Workload(
            sessions=(
                SessionSpec(name="a", requests=3),
                SessionSpec(name="b", requests=5),
            )
        )
        assert w.total_requests == 8
