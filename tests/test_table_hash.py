"""The kernel's bit-identity report, `tools/table_hash.py`: it runs on this
checkout and prints the number of game tables and one sha256."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_hash_over_the_corpus():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "table_hash.py")], capture_output=True, text=True, check=True, timeout=300
    ).stdout
    assert re.fullmatch(r"24 tables sha256 [0-9a-f]{64}\n", out)
