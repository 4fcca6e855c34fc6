"""The README's Python quick tour runs as written and gives the values its
comments state."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

# `expression  # 0.41229...`: the value truncated to the digits shown
TRUNCATED = re.compile(r"^(?P<expr>[^#=]+?)\s+#\s*(?P<value>\d+\.(?P<digits>\d+))\.\.\.")


def _quick_tour():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python", text.index("## Library quick tour")) + len("```python")
    return text[start:text.index("```", start)]


def test_readme_quick_tour_gives_its_commented_values():
    block = _quick_tour()
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    checked = 0
    for line in block.splitlines():
        match = TRUNCATED.match(line)
        if match:
            value = eval(match["expr"], ns)
            assert 0.0 <= value - float(match["value"]) < 10.0 ** -len(match["digits"]), line
            checked += 1
    assert checked == 2  # rna_bsms(0.25, 0.1) and sol.rate
    sol, design, report = ns["sol"], ns["design"], ns["report"]
    assert ns["rna_scalar_partially_observed"](0.5, 1.0, 1.0, 0.5, 0.4) == pytest.approx(
        sol.rate, rel=1e-9)  # "same, via the cubic"
    assert design.D_min == pytest.approx(4.0 / 7.0, rel=1e-15)
    assert design.capacity == pytest.approx(0.5, rel=1e-15)
    assert abs(report.distortion - design.D_min) <= 4.0 * report.distortion_se
    assert abs(report.power - design.P) <= 4.0 * report.power_se
    assert math.isfinite(report.distortion_se) and report.samples >= 10**6
