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
def pair_visibility():
    """(i_max - i_min) / (i_max + i_min): V from an intensity pair, a route apart from
    ``visibility_lower_bound``'s, which the tests compare with it."""
    return lambda i_min, i_max: (i_max - i_min) / (i_max + i_min)
