"""The wording for a length or angle that is not positive and finite lives in config.py.

``config.positive_finite_error`` builds that ConfigError; the checks that
raise it elsewhere call it instead of spelling the message again.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wiregrid"


def test_only_config_spells_the_positive_finite_message():
    spellers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "positive finite" in path.read_text()
    )
    assert spellers == ["config.py"]
