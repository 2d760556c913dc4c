"""Print one hash each of the kernel's game tables, the estimator's fits
and the command-line interface's output over fixed corpora, so two
versions of `rallystats` can be checked for the same bits.

Tables: 24 of them, side-out games to 15, rally-point games to 21, and
side-out games to 9 with a three-point tie-break and to 5 with a
two-point one, each at five single points (p_a, p_b) = (.6, .5),
(.3, .7), (.05, .07), (1e-4, 1e-4) and (1, .5) and on a 99-point
no-server grid (p_a = p_b = .01, .02, ..., .99).  Each table contributes
the bytes of its five arrays (`alpha`, `beta`, `weight`, `shift_mean`,
`shift_var`) and of its shift laws at the exchange probability of each of
its points, every array preceded by its shape.

Fits: 768 of them, games to n = 5, 9, 15 and 21 at (p_a, p_b) = (.6, .5),
(.3, .7) and (.8, .2), without a tie-break and with a three-point one,
60 games each from seeds `SeedSpec(0)` .. `SeedSpec(7)` (either player
serving first with probability .5), each batch fitted in both modes and
both models.  Each fit contributes the `repr` of its `FitResult` and a
newline; a fit that raises stands in as its error's type and message.

Commands: the `--help` of the group and of each command; each command as
CSV and as `--format json` (`duration` with each `--stat`, `estimate` in
both modes, on the records the `simulate` run writes); the failing cases
(exit code not 0) of `tests/golden/cli_commands.json`; and an `--out`
into a missing directory and an `--input` that does not exist.  Each
invocation runs in this process through click's `CliRunner`, in one
temporary working directory, with help text wrapped at 80 columns; an
exception that escapes the CLI stops the run.  Each contributes the JSON
list [args, exit code, stdout, stderr] and a newline.

A corpus's hash is the sha256 of what its items contribute, in order.
It imports the package from the `src` directory of the checkout it sits
in:

    python tools/bits.py

It prints one line per corpus, `N <name> sha256 <hex>` with N its number
of items: tables, fits, then commands.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from rallystats import GameConfig, RallyProbs, ScoringSystem, SeedSpec, cli, estimate, kernel, simulate  # noqa: E402

CONFIGS = (
    GameConfig(n=15),
    GameConfig(n=21, system=ScoringSystem.RALLY_POINT),
    GameConfig(n=9, tiebreak=3),
    GameConfig(n=5, tiebreak=2),
)
POINTS = ((0.6, 0.5), (0.3, 0.7), (0.05, 0.07), (1e-4, 1e-4), (1.0, 0.5))
GRID = np.linspace(0.01, 0.99, 99)
FIELDS = ("alpha", "beta", "weight", "shift_mean", "shift_var")

TARGETS = (5, 9, 15, 21)
PROBS = ((0.6, 0.5), (0.3, 0.7), (0.8, 0.2))
TIEBREAKS = (None, 3)
SEEDS = range(8)
GAMES = 60

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


def tables():
    """The bytes of each table of the corpus, in order."""
    for config in CONFIGS:
        for p_a, p_b in (*POINTS, (GRID, GRID)):
            game = kernel.game(config, p_a, p_b)
            qs = [RallyProbs(a, b).q for a, b in zip(np.atleast_1d(p_a).tolist(), np.atleast_1d(p_b).tolist())]
            arrays = [getattr(game, name) for name in FIELDS] + [game.shift_laws(q) for q in qs]
            yield b"".join(repr(a.shape).encode() + a.tobytes() for a in map(np.ascontiguousarray, arrays))


def fits():
    """The `repr` of each fit of the corpus, or its error's type and
    message, as a line."""
    for n, (p_a, p_b), tiebreak, seed in itertools.product(TARGETS, PROBS, TIEBREAKS, SEEDS):
        sample = simulate.sample_games(RallyProbs(p_a, p_b), GameConfig(n=n, s_a=0.5, tiebreak=tiebreak), GAMES, SeedSpec(seed))
        records = estimate.records_from_sample(sample)
        for mode, model in itertools.product(estimate.FitMode, estimate.FitModel):
            try:
                line = repr(estimate.fit(records, mode, model))
            except Exception as exc:  # the error stands in for the fit
                line = f"{type(exc).__name__}: {exc}"
            yield line.encode() + b"\n"


def commands():
    """[args, exit code, stdout, stderr] of each invocation of the corpus,
    as a JSON line."""
    golden = json.loads((ROOT / "tests" / "golden" / "cli_commands.json").read_text(encoding="utf-8"))
    helps = [["--help"]] + [[name, "--help"] for name in sorted(cli.main.commands)]
    formats = [args + fmt for args in TABLES for fmt in ([], ["--format", "json"])]
    runner = CliRunner()
    with runner.isolated_filesystem():
        for args in helps + formats + [case["args"] for case in golden if case["exit_code"] != 0] + IO_ERRORS:
            result = runner.invoke(cli.main, args, catch_exceptions=False, terminal_width=80)
            yield json.dumps([args, result.exit_code, result.stdout, result.stderr]).encode() + b"\n"


def main() -> None:
    for name, corpus in (("tables", tables), ("fits", fits), ("commands", commands)):
        digest, count = hashlib.sha256(), 0
        for item in corpus():
            digest.update(item)
            count += 1
        print(f"{count} {name} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
