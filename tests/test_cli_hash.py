"""The command-line interface's bit-identity report, `tools/cli_hash.py`:
it runs on this checkout and prints the number of invocations and one
sha256."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_hash_over_the_corpus():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_hash.py")], capture_output=True, text=True, check=True, timeout=300
    ).stdout
    assert re.fullmatch(r"44 commands sha256 [0-9a-f]{64}\n", out)
