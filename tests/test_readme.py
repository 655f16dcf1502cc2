"""The README's library sketch runs, and its reproduction figures are the code's."""

import re
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal
from pathlib import Path

import pytest

import wiregrid
from wiregrid import ExperimentConfig, cli, montecarlo

README = Path(__file__).resolve().parents[1] / "README.md"
FIGURES_HEADER = "| Figure | Paper | Computed | Gap | Override | Expression |"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(sketch, f"{README}:library-sketch", "exec"), namespace)
    assert namespace["counts"].total == namespace["cfg"].photon_count


def _figure_rows():
    """The cells of every row of the README's reproduction table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(FIGURES_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def _agrees(value: float, cell: str) -> bool:
    """Whether ``value`` shows as ``cell`` ('7.53 %', '997,522', '>= 0.9699').

    A cell ending in % quotes 100 * value; one after '>=' is a lower bound,
    rounded down, and any other is rounded to the nearest at its digits.
    """
    bound = cell.startswith(">= ")
    quoted = Decimal(cell.removeprefix(">= ").removesuffix(" %").replace(",", ""))
    scale = 100 if cell.endswith("%") else 1
    shown = (Decimal(value) * scale).quantize(quoted, ROUND_FLOOR if bound else ROUND_HALF_EVEN)
    return shown == quoted


def test_readme_quotes_every_reproduction_figure():
    assert len(_figure_rows()) == 12


@pytest.mark.parametrize(
    "row", _figure_rows(), ids=lambda row: re.sub(r"\W+", "_", f"{row[0]} {row[4]}").strip("_")
)
def test_readme_reproduction_figure(row):
    figure, paper, computed, gap, override, expression = row
    cfg = cli.apply_overrides(ExperimentConfig(), [override] if override else [])
    value = eval(expression, vars(wiregrid), {"cfg": cfg})
    assert _agrees(value, computed), f"{figure}: computed {value!r}, README quotes {computed}"
    if not paper:
        assert not gap, f"{figure}: a gap without a paper value"
        return
    rel = value / (float(paper.removesuffix(" %")) / 100) - 1
    assert _agrees(rel, gap), f"{figure}: relative gap {rel!r}, README quotes {gap}"


def test_readme_quotes_the_monte_carlo_chunking():
    text = " ".join(README.read_text(encoding="utf-8").split())
    chunk = re.search(r"chunks of 2\*\*(\d+) photons", text).group(1)
    assert 2 ** int(chunk) == montecarlo._CHUNK
    no_thread = re.search(r"\(up to ([\d,]+) photons\) starts no thread", text).group(1)
    assert int(no_thread.replace(",", "")) == (
        (2 * montecarlo._MIN_SPAN_CHUNKS - 1) * montecarlo._CHUNK
    )


def test_readme_quotes_the_oracle_block_budget():
    from wiregrid import oracle

    text = " ".join(README.read_text(encoding="utf-8").split())
    power = re.search(r"blocks of about 2\*\*(\d+) bytes", text).group(1)
    assert 2 ** int(power) == oracle._KERNEL_BYTES


def test_readme_quotes_the_oracle_grid_cap():
    from wiregrid import oracle

    text = " ".join(README.read_text(encoding="utf-8").split())
    power, spelled = re.search(r"more than 2\*\*(\d+) \(([\d,]+)\) nodes", text).groups()
    assert 2 ** int(power) == int(spelled.replace(",", "")) == oracle._MAX_APERTURE_NODES


def test_readme_quotes_the_window_node_cap():
    from wiregrid import budget

    text = " ".join(README.read_text(encoding="utf-8").split())
    power, spelled = re.search(r"than 2\*\*(\d+) \(([\d,]+)\) nodes, counted", text).groups()
    assert 2 ** int(power) == int(spelled.replace(",", "")) == budget._MAX_WINDOW_NODES
