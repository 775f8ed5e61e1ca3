"""The README's first quick-tour block runs as written and gives the values its comments state."""
import re
from fractions import Fraction
from pathlib import Path

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
