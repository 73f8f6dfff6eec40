"""The README's ``>>>`` examples, run with doctest in one shared namespace."""

import doctest
import io
import os
import re

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
