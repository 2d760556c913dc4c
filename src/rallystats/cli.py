"""Command-line front end: machine-readable tables (CSV or JSON) for every
engine capability.

A command is a function of its parsed flags that returns one table, its
columns and its rows; one wrapper (`_table_command`) registers it,
prints the table as CSV or JSON to stdout or `--out`, and maps errors to
exit codes: 0 success, 2 usage error, 3 domain, conditioning, data or
non-convergence error (the package's typed errors), 4 I/O error.  A
command that plays one game gets the built `GameConfig` and `RallyProbs`
of its game flags (`_game_flags`), not the flags.  All commands are
deterministic given their flags (plus --seed where randomness is
involved).

Each command reaches the engines through their public functions only and
returns what they give: it makes its calls and lays out the rows, with
no numerics of its own.  It imports the engine modules it calls when it
runs, so a process loads only those (and `--help` none of them).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys

import click
# imported up front though only `--p-grid` uses it: without numpy, the
# benchmark's import probe of this module can end before the first 50 ms
# sample of its host-speed sampler (bench/harness/sampler.py), whose factor
# then has no sample to read and fails the run
import numpy as np

from .core import (
    ConditioningError,
    ConfigError,
    DomainError,
    GameConfig,
    InfeasibleData,
    NonConvergence,
    Player,
    RallyProbs,
    ScoringSystem,
    ServerRule,
)


def _cell(value, as_json: bool):
    """A table cell as the format prints it: floats to 12 significant
    digits, None as an empty CSV cell or JSON null."""
    if value is None:
        return None if as_json else ""
    if isinstance(value, bool):
        return value if as_json else str(value).lower()
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        text = f"{value:.12g}"
        return float(text) if as_json else text
    return str(value)


def _table_text(columns: list[str], rows: list[list], fmt: str) -> str:
    """The table as CSV (a header row, then the rows) or as JSON."""
    cells = [[_cell(v, as_json=fmt == "json") for v in row] for row in rows]
    if fmt == "json":
        return json.dumps({"columns": columns, "rows": cells}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *cells])
    return buf.getvalue()


@click.group(name="rallystats")
def main():
    """Exact probabilities, durations, simulation and estimation for
    side-out and rally-point games."""


def _table_command(name: str):
    """Register `fn`, a function of its flags that returns a table
    (columns, rows), as the command `name`, with `--format` and `--out`
    as its last options.  The command prints the table as CSV or JSON to
    stdout or the `--out` file; a typed error of the package exits 3 and
    an OSError 4, each with its message on stderr."""

    def register(fn):
        @main.command(name)
        @functools.wraps(fn)
        def command(fmt, out, **flags):
            try:
                text = _table_text(*fn(**flags), fmt)
                if out is None:
                    click.echo(text, nl=False)
                else:
                    with open(out, "w", encoding="utf-8") as fh:
                        fh.write(text)
            except (DomainError, ConfigError, ConditioningError, InfeasibleData, NonConvergence) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(3)
            except OSError as exc:
                click.echo(f"i/o error: {exc}", err=True)
                sys.exit(4)

        command.params += [
            click.Option(["--out"], type=str, default=None, help="Write the table to this file."),
            click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]), default="csv"),
        ]
        return command

    return register


class Numbers(click.ParamType):
    """Comma-separated numbers of type `kind` (empty items skipped), exactly
    `size` of them when it is given; or, with `grid`, the inclusive grid
    START:STOP:STEP as the list of start + i * step.  Floats must be finite
    and a grid's step nonzero."""

    def __init__(self, kind=float, size: int | None = None, grid: bool = False):
        self.kind, self.size, self.grid = kind, 3 if grid else size, grid
        self.name = "grid" if grid else "integers" if kind is int else "numbers"

    def convert(self, value, param, ctx):
        if not isinstance(value, str):
            return value
        parts = value.split(":") if self.grid else [x for x in value.split(",") if x]
        try:
            numbers = [self.kind(x) for x in parts]
        except ValueError:
            numbers = None
        if numbers is None or self.size not in (None, len(numbers)):
            form = "START:STOP:STEP" if self.grid else f"{self.size or ''} comma-separated {self.name}".lstrip()
            self.fail(f"expected {form}, got {value!r}", param, ctx)
        if self.kind is float and not all(map(math.isfinite, numbers)):
            self.fail(f"{value!r} holds a number that is not finite", param, ctx)
        if not self.grid:
            return numbers
        start, stop, step = numbers
        if step == 0.0:
            self.fail(f"the step of {value!r} is 0", param, ctx)
        try:
            return (start + np.arange(max(int(round((stop - start) / step)) + 1, 0)) * step).tolist()
        except (ValueError, OverflowError, MemoryError):
            self.fail(f"the grid {value!r} is too large to build", param, ctx)


def _game_flags(fn):
    """The flags of one game, passed to `fn` as its built `config` and
    `probs`; the config is built first, so its errors come first.  The
    first server is A with probability --sa, or surely the --server (A by
    default)."""

    @functools.wraps(fn)
    def play(system, n, pa, pb, server, sa, tiebreak, **flags):
        s_a = sa if sa is not None else float(server != "B")
        config = GameConfig(n=n, system=ScoringSystem(system), tiebreak=tiebreak, s_a=s_a)
        return fn(config=config, probs=RallyProbs(pa, pb), **flags)

    play = click.option("--system", type=click.Choice(["sideout", "rallypoint"]), default="sideout")(play)
    play = click.option("--n", type=int, required=True, help="Target score of a game.")(play)
    play = click.option("--pa", type=float, required=True)(play)
    play = click.option("--pb", type=float, required=True)(play)
    play = click.option("--server", type=click.Choice(["A", "B"]), default=None)(play)
    play = click.option("--sa", type=float, default=None, help="P[first server is A]; overrides --server.")(play)
    play = click.option("--tiebreak", type=int, default=None)(play)
    return play


_quantile_mode = click.option(
    "--quantile-mode",
    type=click.Choice(["standard", "interpolated"]),
    default="standard",
)


@_table_command("score-dist")
@_game_flags
def cmd_score_dist(config, probs):
    """Probability of every terminal score."""
    from . import sideout

    dist = sideout.score_distribution(probs, config)
    rows = [
        [score.alpha, score.beta, score.winner.value, prob]
        for score, prob in dist.entries.items()
    ]
    return ["alpha", "beta", "winner", "probability"], rows


def _moment_rows(probs, config, score):
    from . import duration

    if score is not None:
        rows = [(f"score={score[0]}-{score[1]}", duration.score_moments(probs, config, score))]
    else:
        agg = duration.aggregate_moments(probs, config)
        rows = zip(["winner=A", "winner=B", "unconditional"], [agg.by_winner.get(w) for w in Player] + [agg.overall])
    # an event of probability zero has no moments: empty cells
    return [[label, *((m.mean, m.sd, m.variance) if m is not None else (None,) * 3)] for label, m in rows]


@_table_command("duration")
@_game_flags
@click.option("--stat", type=click.Choice(["moments", "pmf", "quantiles"]), default="moments")
@click.option("--winner", type=click.Choice(["A", "B"]), default=None)
@click.option("--score", type=Numbers(int, size=2), default=None, help="Condition on a final tally 'alpha,beta'.")
@click.option("--levels", type=Numbers(), default="0.01,0.05,0.25,0.5,0.75,0.95,0.99")
@_quantile_mode
@click.option("--epsilon", type=float, default=1e-12, help="Tail tolerance for PMF truncation.")
def cmd_duration(config, probs, stat, winner, score, levels, quantile_mode, epsilon):
    """Rally-count distribution: moments, PMF or quantiles."""
    from . import duration

    if score is not None and winner is not None:
        raise click.UsageError("--score and --winner cannot be given together: an end score fixes the winner")
    if stat == "moments" and winner is not None:
        raise click.UsageError("--winner selects the law of --stat pmf or quantiles, not of --stat moments")
    ctx = click.get_current_context()
    for name in {"moments": ("epsilon", "levels", "quantile_mode"), "pmf": ("levels", "quantile_mode")}.get(stat, ()):
        if ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE:
            raise click.UsageError(f"--{name.replace('_', '-')} is not read by --stat {stat}")
    if stat == "moments":
        return ["conditioning", "mean", "sd", "variance"], _moment_rows(probs, config, score)
    if score is not None:
        pmf = duration.score_pmf(probs, config, score, epsilon)
    elif winner is None:
        pmf = duration.duration_pmf_unconditional(probs, config, epsilon)
    else:
        pmf = duration.duration_pmf_winner(probs, config, Player(winner), epsilon)
    if stat == "pmf":
        rows = [
            [int(pmf.offset + i), float(mass), pmf.truncation_bound]
            for i, mass in enumerate(pmf.masses)
        ]
        return ["rallies", "probability", "truncation_bound"], rows
    mode = duration.QuantileMode(quantile_mode)
    return ["level", "rallies", "mode"], [[lv, duration.quantile(pmf, lv, mode), mode.value] for lv in levels]


@_table_command("compare")
@click.option("--sideout-n", type=int, default=15)
@click.option("--rallypoint-n", type=int, default=21)
@click.option("--p-grid", type=Numbers(grid=True), default="0.01:0.99:0.01", help="START:STOP:STEP inclusive grid.")
def cmd_compare(sideout_n, rallypoint_n, p_grid):
    """Side-out vs rally-point in the no-server model: win probabilities
    and duration summaries per p, with limit reference rows at p = 0, 1."""
    from . import asymptotics, duration

    so_cfg = GameConfig(n=sideout_n, system=ScoringSystem.SIDE_OUT)
    rp_cfg = GameConfig(n=rallypoint_n, system=ScoringSystem.RALLY_POINT)
    columns = [
        "kind", "p", "sideout_win_a", "rallypoint_win_a", "win_ratio",
        "sideout_e", "sideout_sd", "rallypoint_e", "rallypoint_sd",
        "sideout_e_win_a", "sideout_sd_win_a", "sideout_e_win_b", "sideout_sd_win_b",
        "rallypoint_e_win_a", "rallypoint_sd_win_a", "rallypoint_e_win_b", "rallypoint_sd_win_b",
    ]
    # the no-server model (p_a = p, p_b = 1 - p) inside (0, 1), first server A
    p = [x for x in p_grid if 0.0 < x < 1.0]
    so, rp = (duration.grid_moments(cfg, p, [1.0 - x for x in p]) for cfg in (so_cfg, rp_cfg))
    a, b = Player.A, Player.B
    win_ratio = [r / s for r, s in zip(rp[a][0], so[a][0])]
    cols = [p, so[a][0], rp[a][0], win_ratio, *so[None][1:], *rp[None][1:],
            *so[a][1:], *so[b][1:], *rp[a][1:], *rp[b][1:]]
    rows = [["grid", *vals] for vals in zip(*cols)]
    so_sys, rp_sys = ScoringSystem.SIDE_OUT, ScoringSystem.RALLY_POINT
    for p_lim, direction, sure in ((0.0, asymptotics.Direction.P_TO_0, b), (1.0, asymptotics.Direction.P_TO_1, a)):
        limit = {
            (system, w): asymptotics.limit_moments(system, w, direction, target)
            for system, target in ((so_sys, sideout_n), (rp_sys, rallypoint_n))
            for w in Player
        }
        # A wins with probability p_lim in the limit, and the unconditional
        # limits equal the moments above the almost-sure winner
        keys = [(so_sys, sure), (rp_sys, sure), (so_sys, a), (so_sys, b), (rp_sys, a), (rp_sys, b)]
        cells = [x for key in keys for x in (limit[key].mean, limit[key].sd)]
        rows.append(["limit", p_lim, p_lim, p_lim, None, *cells])
    return columns, rows


@_table_command("simulate")
@_game_flags
@click.option("--replications", "-j", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--stream", type=int, default=0)
@click.option("--records-out", type=str, default=None, help="Also write game records (JSON lines).")
def cmd_simulate(config, probs, replications, seed, stream, records_out):
    """Monte Carlo replications of a game with the standard estimators."""
    from . import simulate

    spec = simulate.SeedSpec(seed, stream)
    if records_out is None:
        report = simulate.run_experiment(probs, config, replications, spec)
    else:
        from . import estimate

        sample = simulate.sample_games(probs, config, replications, spec)
        with open(records_out, "w", encoding="utf-8") as fh:
            fh.write(estimate.records_to_json_lines(estimate.records_from_sample(sample)))
        report = simulate.report_from_sample(sample)
    columns = [
        "replications", "wins_a", "wins_b", "p_hat_a", "p_hat_b",
        "e_hat", "v_hat", "e_hat_win_a", "v_hat_win_a", "e_hat_win_b", "v_hat_win_b",
    ]
    rows = [[
        report.replications, report.wins[Player.A], report.wins[Player.B],
        report.p_hat[Player.A], report.p_hat[Player.B],
        report.e_hat, report.v_hat,
        report.e_hat_winner[Player.A], report.v_hat_winner[Player.A],
        report.e_hat_winner[Player.B], report.v_hat_winner[Player.B],
    ]]
    return columns, rows


@_table_command("estimate")
@click.option("--input", "input_path", type=str, required=True, help="Game records, one JSON object per line.")
@click.option("--mode", type=click.Choice(["score", "score-duration"]), default="score-duration")
@click.option("--model", type=click.Choice(["server", "no-server"]), default="server")
def cmd_estimate(input_path, mode, model):
    """Maximum-likelihood estimates of (p_a, p_b) from observed games."""
    from . import estimate

    with open(input_path, "r", encoding="utf-8") as fh:
        records = estimate.records_from_json_lines(fh)
    result = estimate.fit(records, estimate.FitMode(mode), estimate.FitModel(model))
    columns = ["p_a_hat", "p_b_hat", "log_likelihood", "converged", "boundary", "mode", "model"]
    rows = [[
        result.p_a, result.p_b, result.log_likelihood,
        result.converged, result.boundary, result.mode.value, result.model.value,
    ]]
    return columns, rows


def _match_flags(fn):
    fn = click.option("--games-to-win", "-m", type=int, required=True)(fn)
    fn = click.option(
        "--server-rule",
        type=click.Choice([r.value for r in ServerRule]),
        default=ServerRule.WINNER_SERVES_NEXT.value,
    )(fn)
    fn = click.option("--epsilon", type=float, default=1e-12)(fn)
    return fn


@_table_command("match")
@_game_flags
@_match_flags
def cmd_match(config, probs, games_to_win, server_rule, epsilon):
    """Match-winning probability and match duration summary."""
    from . import matchlevel

    mc = matchlevel.MatchConfig(games_to_win, ServerRule(server_rule))
    wins = [matchlevel.match_win_prob(probs, config, mc, winner) for winner in Player]
    pmf = matchlevel.match_duration_pmf(probs, config, mc, epsilon)
    moments = pmf.moments()
    columns = ["match_win_a", "match_win_b", "e_rallies", "sd_rallies", "truncation_bound"]
    return columns, [[*wins, moments.mean, moments.sd, pmf.truncation_bound]]


def _at_least_one(ctx, param, value):
    """A count of at least one, checked as the flags are parsed."""
    if value < 1:
        raise click.UsageError(f"--{param.name} must be >= 1")
    return value


@_table_command("plan")
@_game_flags
@_match_flags
@click.option("--matches", type=int, required=True, callback=_at_least_one,
              help="Number of independent matches to schedule.")
@click.option("--quantile-levels", type=Numbers(), default="0.5,0.9,0.95,0.99")
@_quantile_mode
def cmd_plan(config, probs, games_to_win, server_rule, epsilon, matches, quantile_levels, quantile_mode):
    """Quantiles of the total rally count of a block of matches, for event
    planning at a chosen tolerance level."""
    from . import duration, matchlevel

    mc = matchlevel.MatchConfig(games_to_win, ServerRule(server_rule))
    total = matchlevel.block_duration_pmf(probs, config, mc, matches, epsilon)
    mode = duration.QuantileMode(quantile_mode)
    rows = [
        [matches, lv, duration.quantile(total, lv, mode), mode.value]
        for lv in quantile_levels
    ]
    return ["matches", "level", "rallies", "mode"], rows


if __name__ == "__main__":
    main(prog_name="rallystats")
