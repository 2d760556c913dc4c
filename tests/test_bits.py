"""The bit-identity report, `tools/bits.py`: it runs on this checkout and
prints one sha256 each over the game tables, the fits and the CLI
invocations of its corpora."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from rallystats import cli

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_hash_per_corpus():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bits.py")], capture_output=True, text=True, check=True, timeout=300
    ).stdout
    assert re.fullmatch(r"24 tables sha256 [0-9a-f]{64}\n768 fits sha256 [0-9a-f]{64}\n44 commands sha256 [0-9a-f]{64}\n", out)


def test_commands_corpus_runs_every_command():
    # a command left out of TABLES would change no line of the report
    spec = importlib.util.spec_from_file_location("bits", ROOT / "tools" / "bits.py")
    bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bits)
    assert set(cli.main.commands) <= {args[0] for args in bits.TABLES}
