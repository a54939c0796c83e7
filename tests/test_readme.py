"""The README's examples run as written: the API example prints what it
says, every `walklab` command exits 0, every `--disorder` example parses."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from walklab.cli import main
from walklab.disorder import parse_disorder

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


def _sh_lines():
    """The lines of README's sh blocks, with continued lines joined and
    comments dropped, each split into words."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words:
                yield words


def test_readme_commands_run(monkeypatch, capsys):
    monkeypatch.delenv("WALKLAB_SEED", raising=False)
    commands = [words[1:] for words in _sh_lines() if words[0] == "walklab"]
    assert len(commands) == 12
    for argv in commands:
        assert main(argv) == 0, argv
        out, _ = capsys.readouterr()
        assert out.startswith("# "), argv


def test_readme_disorder_examples_parse():
    specs = [words[1] for words in _sh_lines() if words[0] == "--disorder"]
    assert len(specs) == 8
    for text in specs:
        parse_disorder(text)
