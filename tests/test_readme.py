"""The README's Python quick tour runs as written and gives the values its
comments state, and the README names every output schema the CLI emits."""

import json
import math
import re
from pathlib import Path

import pytest

from nardf import cli

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


# one argv per output schema, small enough to run in milliseconds
SCHEMA_ARGVS = [
    ["bsms-curve", "--p", "0.25", "--d", "0.1"],
    ["gauss-rate", "--model", "scalar.txt", "--d", "0.5"],
    ["jscc-sim", "--mode", "iid", "--steps", "400", "--seed", "1"],
    ["excess", "--p", "0.25", "--d", "0.1", "--gamma", "0.1", "--n-grid", "100:100:1"],
    ["excess", "--p", "0.25", "--d", "0.1", "--theta-grid", "0.2:0.2:1"],
    ["rate-loss", "--p", "0.25", "--d", "0.1"],
    ["rate-loss"],
]


def test_readme_names_every_schema_the_cli_emits(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scalar.txt").write_text("m 1\nk 1\np 1\nd 0\nA 0.5\nB 1\nC 1\n")
    emitted = set()
    for argv in SCHEMA_ARGVS:
        assert cli.main(argv + ["--format", "json"]) == 0
        emitted.add(json.loads(capsys.readouterr().out)["schema"])
    # every schema string in the CLI's source is one that these commands emit
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert set(re.findall(r'"(nardf/[\w-]+/v\d+)"', source)) == emitted
    text = README.read_text(encoding="utf-8")
    assert not [schema for schema in sorted(emitted) if f"`{schema}`" not in text]
