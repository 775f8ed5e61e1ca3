"""The README's first quick-tour block runs as written and gives the values its comments
state, and every line of its first command-line block exits 0."""
import glob
import re
import shlex
from fractions import Fraction
from pathlib import Path

from rwedf import write_family
from rwedf.cli import main

from helpers import mixed_z10, pair_z7, weighted_z8

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_as_written():
    tour = README.read_text().split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope = {}
    exec(block, scope)
    # each commented line of the block: its expression -> its comment
    comments = dict(
        (part.strip() for part in line.split("#", 1)) for line in block.splitlines() if "#" in line
    )
    expected = {
        "report.rwedf": (Fraction(2, 1), "Fraction(2, 1)"),
        "report.e_hat": (Fraction(1, 2), "1/2"),
        "report.r_bound": (Fraction(1, 2), "1/2"),
        "report.bimodal.holds": (False, "False"),
    }
    assert list(comments) == list(expected)
    for expression, (value, stated) in expected.items():
        assert eval(expression, scope) == value and type(eval(expression, scope)) is type(value)
        assert stated in comments[expression]


def test_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    write_family(tmp_path / "fam.json", weighted_z8()[0])  # three sets, for --weights
    (tmp_path / "runs").mkdir()
    write_family(tmp_path / "runs" / "mixed.json", mixed_z10())
    write_family(tmp_path / "runs" / "pair.json", pair_z7())
    monkeypatch.chdir(tmp_path)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    for line in lines:
        command, *words = shlex.split(line)
        assert command == "rwedf"
        argv = [w for word in words for w in (sorted(glob.glob(word)) if "*" in word else [word])]
        assert main(argv) == 0, line
    out = capsys.readouterr().out
    assert "runs/mixed.json" in out and "runs/pair.json" in out and "error:" not in out
