"""Argument validators and the error hierarchy."""

import numpy as np
import pytest

from repro.core.timeseries import PipelinedTimeSeriesRenderer, simulate_pipeline
from repro.sim.parallel import ParallelConfig
from repro.utils.errors import (
    CommunicationError,
    ConfigError,
    DeadlockError,
    FormatError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.utils.validation import (
    check_int,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_shape3,
    is_power_of_two,
)


class TestValidators:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(32768)
        assert not is_power_of_two(0)
        assert not is_power_of_two(-4)
        assert not is_power_of_two(3)
        assert not is_power_of_two(2.0)  # floats are not ints

    def test_check_positive(self):
        check_positive("x", 1e-9)
        with pytest.raises(ConfigError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ConfigError):
            check_non_negative("x", -1)
        with pytest.raises(ConfigError):
            check_non_negative("x", float("nan"))

    def test_check_power_of_two(self):
        check_power_of_two("p", 64)
        with pytest.raises(ConfigError, match="power of two"):
            check_power_of_two("p", 48)

    def test_check_shape3(self):
        assert check_shape3("s", [4, 5, 6]) == (4, 5, 6)
        assert check_shape3("s", (1.0, 2.0, 3.0)) == (1, 2, 3)
        with pytest.raises(ConfigError):
            check_shape3("s", (1, 2))
        with pytest.raises(ConfigError):
            check_shape3("s", (1, 0, 2))
        with pytest.raises(ConfigError):
            check_shape3("s", "abc")


NAN = float("nan")

#: Integer knobs given a non-integer, and a NaN read demand: each once
#: reached a raw TypeError mid-run, ran silently, or truncated.
KNOB_CASES = {
    "workers=2.5": lambda: ParallelConfig(workers=2.5),
    "workers='2'": lambda: ParallelConfig(workers="2"),
    "workers=True": lambda: ParallelConfig(workers=True),
    "simulate depth=1.5": lambda: simulate_pipeline([1.0], [1.0], prefetch_depth=1.5),
    "simulate depth=nan": lambda: simulate_pipeline([1.0], [1.0], prefetch_depth=NAN),
    "renderer depth=1.5": lambda: PipelinedTimeSeriesRenderer(None, prefetch_depth=1.5),
    "read demand nan": lambda: simulate_pipeline([NAN], [1.0]),
}


@pytest.mark.parametrize("case", sorted(KNOB_CASES))
def test_bad_knob_is_a_config_error(case):
    with pytest.raises(ConfigError):
        KNOB_CASES[case]()


def test_check_int_accepts_numpy_ints():
    assert check_int("n", np.int64(3), 1) == 3
    assert ParallelConfig(workers=np.int32(2)).workers == 2


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigError, SimulationError, FormatError, StorageError, CommunicationError):
            assert issubclass(exc, ReproError)

    def test_deadlock_is_simulation_error(self):
        assert issubclass(DeadlockError, SimulationError)

    def test_deadlock_message_truncates(self):
        err = DeadlockError([f"rank{i}" for i in range(20)])
        assert "rank0" in str(err)
        assert "20 total" in str(err)
        assert "rank15" not in str(err)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise FormatError("bad file")
