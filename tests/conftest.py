import math
import random
import tracemalloc

import pytest

from wiregrid import (
    ExperimentConfig,
    single_beam_budget,
    two_beam_budget,
    two_beam_pattern,
)


@pytest.fixture(scope="session")
def reference_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def reference_pattern(reference_config):
    """Full-range two-beam pattern; the expensive shared artefact."""
    return two_beam_pattern(reference_config)


@pytest.fixture(scope="session")
def reference_budget(reference_config):
    return two_beam_budget(reference_config)


@pytest.fixture(scope="session")
def reference_single_budget(reference_config):
    return single_beam_budget(reference_config)


@pytest.fixture(scope="session")
def traced_peak():
    """``measure(fn, *args)``: the most memory, in bytes, that ``fn(*args)`` held
    at once beyond what was held before the call, numpy's buffers included
    (numpy reports them to tracemalloc), its result among them."""

    def measure(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return measure


@pytest.fixture(scope="session")
def pair_visibility():
    """(i_max - i_min) / (i_max + i_min): V from an intensity pair, a route apart from
    ``visibility_lower_bound``'s, which the tests compare with it."""
    return lambda i_min, i_max: (i_max - i_min) / (i_max + i_min)


@pytest.fixture(scope="session")
def consistent_geometries():
    """``draw(seed, n)``: n random consistent configs.  The crossing angle puts
    the fringe spacing on the pitch, 3 <= d/b <= 32, M even, the grid inside
    the beam."""

    def draw(seed: int, n: int):
        rng = random.Random(seed)
        for i in range(n):
            count = (2, 4, 6, 8, 10, 12)[i % 6]
            wavelength = rng.uniform(400e-9, 800e-9)
            pitch = math.exp(rng.uniform(math.log(150e-6), math.log(800e-6)))
            crossing = 2.0 * math.asin(wavelength / (2.0 * pitch))
            yield ExperimentConfig(
                wavelength=wavelength,
                wire_thickness=pitch / math.exp(rng.uniform(math.log(3.0), math.log(32.0))),
                wire_pitch=pitch,
                wire_count=count,
                beam_side=count * pitch * rng.uniform(1.05, 1.5),
                crossing_angle=crossing,
                detector_half_width=0.5 * crossing * rng.uniform(0.1, 0.5),
            )

    return draw
