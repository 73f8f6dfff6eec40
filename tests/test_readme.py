"""The README's ``>>>`` examples, run with doctest in one shared namespace."""

import doctest
import io
import os
import re
import shlex

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_examples_run():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    # doctest reads each fenced block alone, so a closing fence never joins
    # the expected output of the example above it
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = io.StringIO()
    globs = {}
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, globs, "README block %d" % i, README, 0),
                   out=report.write, clear_globs=False)
    results = runner.summarize(verbose=False)
    assert results.attempted == text.count("\n>>> ") > 0
    assert results.failed == 0, report.getvalue()


def test_readme_command_lines_print_what_they_show(capsys, monkeypatch):
    """Each ``sweedler`` line of an ``sh`` block that a ``# <output>`` comment
    follows prints exactly that output, run in process from the repo root."""
    from sweedler.cli import main

    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    monkeypatch.chdir(os.path.dirname(README))
    checked = 0
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        lines = block.replace("\\\n", " ").splitlines()
        for command, comment in zip(lines, lines[1:]):
            if command.startswith("sweedler ") and comment.startswith("# "):
                assert main(shlex.split(command)[1:]) == 0, command
                assert capsys.readouterr() == (comment[2:] + "\n", ""), command
                checked += 1
    assert checked == 4
