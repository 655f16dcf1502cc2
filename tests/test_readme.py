"""The README's library sketch runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(sketch, f"{README}:library-sketch", "exec"), namespace)
    assert namespace["counts"].total == namespace["cfg"].photon_count
