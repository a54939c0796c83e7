"""The README's API example runs as written and prints what it says."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_api_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    printed = out.getvalue().splitlines()
    # each print's comment opens with the value it prints, to its last digit
    # ("~" marks a rough value, within 0.05)
    claims = re.findall(r"^print\(.*#\s*(~?)([-\d.]+)", block, re.M)
    assert len(printed) == len(claims) > 0
    for line, (rough, value) in zip(printed, claims):
        digits = len(value.partition(".")[2])
        tol = 0.05 if rough else 0.5 * 10 ** -digits
        assert abs(float(line) - float(value)) <= tol, (line, value)
