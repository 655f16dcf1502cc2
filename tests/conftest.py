import pytest

from wiregrid import (
    ExperimentConfig,
    single_beam_budget,
    two_beam_budget,
    two_beam_pattern,
    validate_config,
)


@pytest.fixture(scope="session")
def reference_config():
    return validate_config(ExperimentConfig())


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
