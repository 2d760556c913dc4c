"""The README's quick start runs as written: its `>>>` examples are
doctests, each printed value matched up to an ellipsis."""

import doctest
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_examples_run_as_written():
    failed, attempted = doctest.testfile(str(README), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert attempted and not failed
