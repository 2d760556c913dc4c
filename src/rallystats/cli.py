"""Command-line front end: machine-readable tables (CSV or JSON) for every
engine capability.

Exit codes: 0 success, 2 usage error, 3 domain, conditioning, data or
non-convergence error (the package's typed errors), 4 I/O error.  All
commands are deterministic given their flags (plus --seed where
randomness is involved).

Each command imports the engine modules it calls when it runs, so a
process loads only those (and `--help` none of them).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import click
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


@dataclass
class OutputTable:
    columns: list[str]
    rows: list[list]

    def _cell(self, value, as_json: bool):
        if value is None:
            return None if as_json else ""
        if isinstance(value, (bool, np.bool_)):
            return bool(value) if as_json else str(bool(value)).lower()
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            text = f"{float(value):.12g}"
            return float(text) if as_json else text
        return str(value)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([self._cell(v, as_json=False) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "columns": self.columns,
            "rows": [[self._cell(v, as_json=True) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(table: OutputTable, fmt: str, out: str | None) -> None:
    text = table.to_json() if fmt == "json" else table.to_csv()
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def engine_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, ConfigError, ConditioningError, InfeasibleData, NonConvergence) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(4)

    return wrapper


class Numbers(click.ParamType):
    """Comma-separated numbers of type `kind` (empty items skipped), exactly
    `size` of them when it is given; or, with `grid`, the inclusive grid
    START:STOP:STEP as the array start + i * step.  Floats must be finite
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
            return start + np.arange(max(int(round((stop - start) / step)) + 1, 0)) * step
        except (ValueError, OverflowError, MemoryError):
            self.fail(f"the grid {value!r} is too large to build", param, ctx)


def _common_flags(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")(fn)
    fn = click.option("--out", type=str, default=None, help="Write the table to this file.")(fn)
    return fn


def _game_flags(fn):
    fn = click.option("--system", type=click.Choice(["sideout", "rallypoint"]), default="sideout")(fn)
    fn = click.option("--n", type=int, required=True, help="Target score of a game.")(fn)
    fn = click.option("--pa", type=float, required=True)(fn)
    fn = click.option("--pb", type=float, required=True)(fn)
    fn = click.option("--server", type=click.Choice(["A", "B"]), default=None)(fn)
    fn = click.option("--sa", type=float, default=None, help="P[first server is A]; overrides --server.")(fn)
    fn = click.option("--tiebreak", type=int, default=None)(fn)
    return fn


def _build_config(system, n, sa, server, tiebreak) -> GameConfig:
    """The game config; the first server is A with probability --sa, or
    surely the --server (A by default)."""
    s_a = sa if sa is not None else float(server != "B")
    return GameConfig(n=n, system=ScoringSystem(system), tiebreak=tiebreak, s_a=s_a)


@click.group(name="rallystats")
def main():
    """Exact probabilities, durations, simulation and estimation for
    side-out and rally-point games."""


@main.command("score-dist")
@_game_flags
@_common_flags
@engine_errors
def cmd_score_dist(system, n, pa, pb, server, sa, tiebreak, fmt, out):
    """Probability of every terminal score."""
    from . import sideout

    config = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    dist = sideout.score_distribution(probs, config)
    rows = [
        [score.alpha, score.beta, score.winner.value, prob]
        for score, prob in dist.entries.items()
    ]
    _emit(OutputTable(["alpha", "beta", "winner", "probability"], rows), fmt, out)


def _moment_rows(probs, config, score):
    from . import duration

    if score is not None:
        rows = [(f"score={score[0]}-{score[1]}", duration.score_moments(probs, config, score))]
    else:
        agg = duration.aggregate_moments(probs, config)
        rows = zip(["winner=A", "winner=B", "unconditional"], [agg.by_winner.get(w) for w in Player] + [agg.overall])
    # an event of probability zero has no moments: empty cells
    return [[label, *((m.mean, m.sd, m.variance) if m is not None else (None,) * 3)] for label, m in rows]


@main.command("duration")
@_game_flags
@click.option("--stat", type=click.Choice(["moments", "pmf", "quantiles"]), default="moments")
@click.option("--winner", type=click.Choice(["A", "B"]), default=None)
@click.option("--score", type=Numbers(int, size=2), default=None, help="Condition on a final tally 'alpha,beta'.")
@click.option("--levels", type=Numbers(), default="0.01,0.05,0.25,0.5,0.75,0.95,0.99")
@click.option(
    "--quantile-mode",
    type=click.Choice(["standard", "interpolated"]),
    default="standard",
)
@click.option("--epsilon", type=float, default=1e-12, help="Tail tolerance for PMF truncation.")
@_common_flags
@engine_errors
def cmd_duration(system, n, pa, pb, server, sa, tiebreak, stat, winner, score, levels,
                 quantile_mode, epsilon, fmt, out):
    """Rally-count distribution: moments, PMF or quantiles."""
    from . import duration

    config = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    if stat == "moments":
        rows = _moment_rows(probs, config, score)
        _emit(OutputTable(["conditioning", "mean", "sd", "variance"], rows), fmt, out)
        return
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
        _emit(OutputTable(["rallies", "probability", "truncation_bound"], rows), fmt, out)
        return
    mode = duration.QuantileMode(quantile_mode)
    rows = [[lv, duration.quantile(pmf, lv, mode), mode.value] for lv in levels]
    _emit(OutputTable(["level", "rallies", "mode"], rows), fmt, out)


@main.command("compare")
@click.option("--sideout-n", type=int, default=15)
@click.option("--rallypoint-n", type=int, default=21)
@click.option("--p-grid", type=Numbers(grid=True), default="0.01:0.99:0.01", help="START:STOP:STEP inclusive grid.")
@_common_flags
@engine_errors
def cmd_compare(sideout_n, rallypoint_n, p_grid, fmt, out):
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
    p = p_grid[(0.0 < p_grid) & (p_grid < 1.0)]

    def grid_columns(cfg):
        # the whole grid at once: no-server model (p_a = p, p_b = 1 - p),
        # first server A; a vanished event has NaN moments
        events = duration._event_moments(cfg, p, 1.0 - p, [(Player.A, w) for w in (Player.A, Player.B, None)])
        cols = {w: [m, np.sqrt(v)] for (_, w), (_, m, v) in events.items()}
        if np.isnan(cols[Player.A] + cols[Player.B]).any():
            raise ConditioningError("conditioning event has vanished")
        return events[(Player.A, Player.A)][0], cols[None], cols[Player.A] + cols[Player.B]

    so_win, so_unc, so_by_winner = grid_columns(so_cfg)
    rp_win, rp_unc, rp_by_winner = grid_columns(rp_cfg)
    cols = [p, so_win, rp_win, rp_win / so_win, *so_unc, *rp_unc, *so_by_winner, *rp_by_winner]
    rows = [["grid", *vals] for vals in zip(*cols)]
    for p_lim, direction in ((0.0, asymptotics.Direction.P_TO_0), (1.0, asymptotics.Direction.P_TO_1)):
        so_a = asymptotics.limit_moments(ScoringSystem.SIDE_OUT, Player.A, direction, sideout_n)
        so_b = asymptotics.limit_moments(ScoringSystem.SIDE_OUT, Player.B, direction, sideout_n)
        rp_a = asymptotics.limit_moments(ScoringSystem.RALLY_POINT, Player.A, direction, rallypoint_n)
        rp_b = asymptotics.limit_moments(ScoringSystem.RALLY_POINT, Player.B, direction, rallypoint_n)
        # unconditional limits equal the moments above the almost-sure winner
        so_unc = so_b if direction is asymptotics.Direction.P_TO_0 else so_a
        rp_unc = rp_b if direction is asymptotics.Direction.P_TO_0 else rp_a
        win_a = 0.0 if direction is asymptotics.Direction.P_TO_0 else 1.0
        rows.append([
            "limit", p_lim, win_a, win_a, None,
            so_unc.mean, so_unc.sd, rp_unc.mean, rp_unc.sd,
            so_a.mean, so_a.sd, so_b.mean, so_b.sd,
            rp_a.mean, rp_a.sd, rp_b.mean, rp_b.sd,
        ])
    _emit(OutputTable(columns, rows), fmt, out)


@main.command("simulate")
@_game_flags
@click.option("--replications", "-j", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--stream", type=int, default=0)
@click.option("--records-out", type=str, default=None, help="Also write game records (JSON lines).")
@_common_flags
@engine_errors
def cmd_simulate(system, n, pa, pb, server, sa, tiebreak, replications, seed, stream,
                 records_out, fmt, out):
    """Monte Carlo replications of a game with the standard estimators."""
    from . import simulate

    config = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    spec = simulate.SeedSpec(seed, stream)
    if records_out is None:
        report = simulate.run_experiment(probs, config, replications, spec)
    else:
        from . import estimate

        sample = simulate.sample_games(probs, config, replications, spec)
        with open(records_out, "w", encoding="utf-8") as fh:
            fh.write(estimate.records_to_json_lines(estimate.records_from_sample(sample)))
        report = simulate._report_from_sample(sample)
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
    _emit(OutputTable(columns, rows), fmt, out)


@main.command("estimate")
@click.option("--input", "input_path", type=str, required=True, help="Game records, one JSON object per line.")
@click.option("--mode", type=click.Choice(["score", "score-duration"]), default="score-duration")
@click.option("--model", type=click.Choice(["server", "no-server"]), default="server")
@_common_flags
@engine_errors
def cmd_estimate(input_path, mode, model, fmt, out):
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
    _emit(OutputTable(columns, rows), fmt, out)


def _match_flags(fn):
    fn = click.option("--games-to-win", "-m", type=int, required=True)(fn)
    fn = click.option(
        "--server-rule",
        type=click.Choice([r.value for r in ServerRule]),
        default=ServerRule.WINNER_SERVES_NEXT.value,
    )(fn)
    fn = click.option("--epsilon", type=float, default=1e-12)(fn)
    return fn


@main.command("match")
@_game_flags
@_match_flags
@_common_flags
@engine_errors
def cmd_match(system, n, pa, pb, server, sa, tiebreak, games_to_win, server_rule, epsilon, fmt, out):
    """Match-winning probability and match duration summary."""
    from . import matchlevel

    config = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    mc = matchlevel.MatchConfig(games_to_win, ServerRule(server_rule))
    wins = [matchlevel.match_win_prob(probs, config, mc, winner) for winner in Player]
    pmf = matchlevel.match_duration_pmf(probs, config, mc, epsilon)
    moments = pmf.moments()
    columns = ["match_win_a", "match_win_b", "e_rallies", "sd_rallies", "truncation_bound"]
    rows = [[*wins, moments.mean, moments.sd, pmf.truncation_bound]]
    _emit(OutputTable(columns, rows), fmt, out)


@main.command("plan")
@_game_flags
@_match_flags
@click.option("--matches", type=int, required=True, help="Number of independent matches to schedule.")
@click.option("--quantile-levels", type=Numbers(), default="0.5,0.9,0.95,0.99")
@click.option(
    "--quantile-mode",
    type=click.Choice(["standard", "interpolated"]),
    default="standard",
)
@_common_flags
@engine_errors
def cmd_plan(system, n, pa, pb, server, sa, tiebreak, games_to_win, server_rule, epsilon,
             matches, quantile_levels, quantile_mode, fmt, out):
    """Quantiles of the total rally count of a block of matches, for event
    planning at a chosen tolerance level."""
    from . import duration, matchlevel

    if matches < 1:
        raise click.UsageError("--matches must be >= 1")
    config = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    mc = matchlevel.MatchConfig(games_to_win, ServerRule(server_rule))
    single = matchlevel.match_duration_pmf(probs, config, mc, epsilon / matches)
    masses = single.masses
    offset = single.offset
    for _ in range(matches - 1):
        masses = np.convolve(masses, single.masses)
        offset += single.offset
    total = duration.DurationPMF(
        offset=offset, masses=masses, truncation_bound=matches * single.truncation_bound
    )
    mode = duration.QuantileMode(quantile_mode)
    rows = [
        [matches, lv, duration.quantile(total, lv, mode), mode.value]
        for lv in quantile_levels
    ]
    _emit(OutputTable(["matches", "level", "rallies", "mode"], rows), fmt, out)


if __name__ == "__main__":
    main(prog_name="rallystats")
