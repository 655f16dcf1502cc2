import pytest

from wiregrid import truth_table


def test_bare_beams_assignment(reference_config):
    sr = truth_table(reference_config)[0]
    assert sr.report.quantum_whichway == 0.0
    assert sr.report.visibility_lower == 0.0
    assert sr.report.classical_whichway_lower == 1.0
    assert sr.report.quantum_sum == 0.0
    assert sr.report.classical_sum == 1.0
    assert "unmeasured" in sr.rationale


def test_grid_assignment_reference_config(reference_config):
    sr = truth_table(reference_config)[1]
    assert sr.report.quantum_whichway == 0.0
    assert sr.report.visibility_lower == pytest.approx(0.9699, abs=1e-4)
    assert sr.report.classical_whichway_lower == pytest.approx(0.99752, abs=1e-5)
    assert "measured" in sr.rationale and "unmeasured" not in sr.rationale


def test_splitter_assignment(reference_config):
    sr = truth_table(reference_config)[2]
    assert sr.report.quantum_whichway == 0.0
    assert sr.report.visibility_lower == 1.0
    assert sr.report.classical_whichway_lower == 0.0
    assert sr.report.quantum_sum == 1.0
    assert sr.report.classical_sum == 1.0
    # the silent detector is not named, only described
    assert "silent" in sr.rationale


def test_every_scenario_obeys_both_inequalities(reference_config):
    for sr in truth_table(reference_config):
        assert sr.report.quantum_sum <= 1.0
        assert sr.report.classical_sum < 2.0


def test_grid_scenario_approaches_bare_for_thin_wires(reference_config):
    thin = truth_table(reference_config.replace(wire_thickness=1e-7))[1]
    assert thin.report.classical_whichway_lower == pytest.approx(1.0, abs=1e-10)
    assert thin.report.visibility_lower == pytest.approx(1.0, abs=1e-6)


def test_truth_table_order(reference_config):
    table = truth_table(reference_config)
    assert [s.scenario for s in table] == ["bare_beams", "wire_grid", "output_splitter"]
    assert [(s.grid, s.output_beam_splitter) for s in table] == [
        (False, False),
        (True, False),
        (False, True),
    ]
    assert [s.visibility_measured for s in table] == [False, True, True]


def test_grid_scenario_propagates_domain_errors():
    # wires wide enough to absorb over half of one arm exhaust the classical
    # which-way bound; the table surfaces that instead of masking it
    from wiregrid import DomainError, ExperimentConfig

    cfg = ExperimentConfig(
        wire_pitch=300e-6, wire_count=2, beam_side=0.72e-3, wire_thickness=290e-6
    )
    with pytest.raises(DomainError, match="1/2"):
        truth_table(cfg)
