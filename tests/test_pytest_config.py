"""The repository's pytest configuration reports a failing property test
with its falsifying example.

It turns warnings into errors, and hypothesis imports libcst to report a
failure, which warns that mypy_extensions.TypedDict is deprecated; unless
that warning is ignored, the report hook raises and pytest stops the
session with an INTERNALERROR instead of the example.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_property_test_shows_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
