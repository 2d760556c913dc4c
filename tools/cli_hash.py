"""Print one hash of the command-line interface's output over a fixed
corpus of invocations, so two versions of `rallystats.cli` can be checked
for the same bytes.

The corpus is the `--help` of the group and of each command; each command
as CSV and as `--format json` (`duration` with each `--stat`, `estimate`
in both modes, on the records the `simulate` run writes); the failing
cases (exit code not 0) of `tests/golden/cli_commands.json`; and an
`--out` into a missing directory and an `--input` that does not exist.
Each invocation runs in this process through click's `CliRunner`, in one
temporary working directory, with help text wrapped at 80 columns; an
exception that escapes the CLI stops the run.  The hash is the sha256 of
the JSON list [args, exit code, stdout, stderr] of every invocation, one
per line in that order.  It imports the package from the `src` directory
of the checkout it sits in:

    python tools/cli_hash.py

It prints the number of invocations and the hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from rallystats import cli  # noqa: E402

GAME = ["--n", "9", "--pa", ".6", "--pb", ".5", "--sa", ".5"]
TABLES = [
    ["score-dist", *GAME, "--tiebreak", "2"],
    ["duration", *GAME, "--stat", "moments"],
    ["duration", *GAME, "--stat", "pmf", "--winner", "B", "--epsilon", "1e-6"],
    ["duration", *GAME, "--stat", "quantiles", "--quantile-mode", "interpolated"],
    ["compare", "--sideout-n", "9", "--rallypoint-n", "11", "--p-grid", "0.1:0.9:0.2"],
    ["simulate", *GAME, "-j", "200", "--seed", "5", "--records-out", "games.jsonl"],
    ["estimate", "--input", "games.jsonl", "--mode", "score"],
    ["estimate", "--input", "games.jsonl", "--model", "no-server"],
    ["match", "--system", "rallypoint", *GAME, "-m", "2", "--server-rule", "alternate"],
    ["plan", *GAME, "-m", "2", "--matches", "3", "--quantile-levels", "0.1,0.5,0.9"],
]
IO_ERRORS = [
    ["score-dist", *GAME, "--out", "missing/table.csv"],
    ["estimate", "--input", "missing.jsonl"],
]


def invocations() -> list[list[str]]:
    """The arguments of every invocation of the corpus, in order."""
    golden = json.loads((ROOT / "tests" / "golden" / "cli_commands.json").read_text(encoding="utf-8"))
    helps = [["--help"]] + [[name, "--help"] for name in sorted(cli.main.commands)]
    tables = [args + fmt for args in TABLES for fmt in ([], ["--format", "json"])]
    return helps + tables + [case["args"] for case in golden if case["exit_code"] != 0] + IO_ERRORS


def results():
    """[args, exit code, stdout, stderr] of each invocation of the corpus."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for args in invocations():
            result = runner.invoke(cli.main, args, catch_exceptions=False, terminal_width=80)
            yield [args, result.exit_code, result.stdout, result.stderr]


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for result in results():
        digest.update(json.dumps(result).encode() + b"\n")
        count += 1
    print(f"{count} commands sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
