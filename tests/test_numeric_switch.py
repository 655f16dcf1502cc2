"""The closed forms pick math or numpy in one place: ``config.numeric`` and ``loaded_numpy``.

``diffraction``, ``complementarity`` and ``budget`` ask the switch instead of
testing an argument's type or probing ``sys.modules`` themselves.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from wiregrid.config import loaded_numpy, numeric

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wiregrid"
OWN_CHOICE = re.compile(r"import numpy|sys\.modules|isinstance\([^()]*,\s*\(int, float\)\)")


@pytest.mark.parametrize("module", ["diffraction.py", "complementarity.py", "budget.py"])
def test_closed_forms_leave_the_choice_to_the_switch(module):
    assert OWN_CHOICE.findall((PACKAGE / module).read_text()) == []


def test_the_pattern_finds_each_way_of_choosing():
    for line in ("import numpy as np", "'numpy' in sys.modules", "isinstance(x, (int, float))"):
        assert OWN_CHOICE.search(line), line


@pytest.mark.parametrize("x", [1, 0.5, np.float64(0.5)], ids=["int", "float", "float64"])
def test_scalars_run_on_math(x):
    assert numeric(x) is math


@pytest.mark.parametrize("x", [np.array(0.5), np.array([0.5, 1.5])], ids=["0-d", "1-d"])
def test_arrays_run_on_numpy(x):
    assert numeric(x) is np


def test_loaded_numpy_is_the_loaded_module():
    assert loaded_numpy() is np
