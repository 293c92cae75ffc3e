"""Every line of the README's "Common invocations" block runs through the
CLI and exits 0, each file name mapped to a temporary file that holds the
README's sample poset of that name."""

import io
import os
import re
import shlex

import pytest

from posetcones.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def sample_posets():
    """File name -> text of each sample block introduced as `NAME.txt`:."""
    return dict(re.findall(r"`(\w+\.txt)`:\n\n```\n(.*?)```", _readme(), re.S))


def invocations():
    block = re.search(r"Common invocations:\n\n```\n(.*?)```", _readme(), re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_readme_names_its_sample_posets():
    assert sorted(sample_posets()) == ["P.txt", "W.txt"]
    assert len(invocations()) >= 10


@pytest.mark.parametrize("line", invocations())
def test_readme_invocation_exits_0(capsys, monkeypatch, tmp_path, line):
    files = {}
    for name, text in sample_posets().items():
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)
    tokens = shlex.split(line, comments=True)
    assert tokens[0] == "posetcones"
    argv = tokens[1:]
    if "<" in argv:
        at = argv.index("<")
        with open(files[argv[at + 1]], encoding="utf-8") as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        argv = argv[:at] + argv[at + 2:]
    code = main([files.get(tok, tok) for tok in argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "Traceback" not in out + err
