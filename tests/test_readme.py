"""The examples in README.md run and print what their comments say."""

import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from qwalk2d import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, comment) of each qwalk2d command in the README's command-line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        comment = comment.split("<-")[0].strip()
        if command.strip():
            examples.append((shlex.split(command)[1:], comment))
        elif comment:
            # a comment on a line of its own belongs to the command above it
            examples[-1] = (examples[-1][0], comment)
    return examples


EXAMPLES = readme_examples()


def test_readme_examples_found():
    assert len(EXAMPLES) == 9


def check_comment(comment: str, out: str, argv: list[str]) -> None:
    """Assert that the output of `argv` carries the value its README comment gives."""
    if not comment:
        return
    printed = re.search(r"^origin probability: (\S+)$", out, re.M)
    if match := re.fullmatch(r"origin probability: ([\d.]+)\.\.\.", comment):
        assert printed.group(1).startswith(match.group(1))
    elif match := re.fullmatch(r"origin probability: < ([\d.]+)", comment):
        assert float(printed.group(1)) < float(match.group(1))
    elif match := re.fullmatch(r"origin probability: ([\d.]+)", comment):
        assert printed.group(1) == match.group(1)
    elif match := re.fullmatch(r"clusters (\d+) / (\d+) at -1 / \+1", comment):
        payload = json.loads(pathlib.Path(argv[argv.index("--out") + 1]).read_text())
        counts = {tuple(c["value"]): c["multiplicity"] for c in payload["clusters"]}
        at = {
            target: sum(n for value, n in counts.items() if abs(complex(*value) - target) < 1e-9)
            for target in (-1, 1)
        }
        assert (at[-1], at[1]) == (int(match.group(1)), int(match.group(2)))
    elif match := re.fullmatch(r"p_R root near alpha = ([\d.]+)", comment):
        rows = np.loadtxt(argv[argv.index("--out") + 1], delimiter=",", skiprows=1)
        alpha = rows[np.argmin(rows[:, 1]), 0]
        assert abs(alpha - float(match.group(1))) <= rows[1, 0] - rows[0, 0]
    elif re.fullmatch(r"localizing: (yes|no)", comment):
        assert comment in out.splitlines()
    elif re.fullmatch(r"[\d.]+", comment):
        assert out.strip() == comment
    else:
        pytest.fail(f"no check for README comment {comment!r}")


def test_readme_library_example():
    block = README.read_text().split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.partition("#")[2].strip() for line in code.splitlines() if "print(" in line]
    assert comments == ["0.3269...", "qw.grover_closed_form(9) within rel 1e-12", "False"]
    printed = []
    namespace = {"print": printed.append}
    exec(code, namespace)
    origin, exact, localizing = printed
    assert str(origin).startswith("0.3269")
    assert exact == pytest.approx(namespace["qw"].grover_closed_form(9), rel=1e-12, abs=0)
    assert localizing is False


@pytest.mark.parametrize(
    "argv,comment", EXAMPLES, ids=[comment or " ".join(argv[:3]) for argv, comment in EXAMPLES]
)
def test_readme_example(argv, comment, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    check_comment(comment, capsys.readouterr().out, argv)
