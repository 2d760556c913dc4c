"""Command-line front end: machine-readable tables (CSV or JSON) for every
engine capability.

Exit codes: 0 success, 2 usage error, 3 domain/conditioning error, 4 I/O
error.  All commands are deterministic given their flags (plus --seed
where randomness is involved).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import asymptotics, duration, estimate, kernel, matchlevel, sideout, simulate
from .core import (
    ConditioningError,
    ConfigError,
    DomainError,
    GameConfig,
    InfeasibleData,
    Player,
    RallyProbs,
    ScoringSystem,
)
from .duration import QuantileMode


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
        except (DomainError, ConfigError, ConditioningError, InfeasibleData) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(4)

    return wrapper


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


def _build_config(system, n, sa, server, tiebreak) -> tuple[GameConfig, Player | None]:
    sys_enum = ScoringSystem.SIDE_OUT if system == "sideout" else ScoringSystem.RALLY_POINT
    if sa is not None:
        return GameConfig(n=n, system=sys_enum, tiebreak=tiebreak, s_a=sa), None
    fixed = Player(server) if server is not None else Player.A
    return GameConfig(n=n, system=sys_enum, tiebreak=tiebreak, s_a=1.0 if fixed is Player.A else 0.0), fixed


@click.group()
def main():
    """Exact probabilities, durations, simulation and estimation for
    side-out and rally-point games."""


@main.command("score-dist")
@_game_flags
@_common_flags
@engine_errors
def cmd_score_dist(system, n, pa, pb, server, sa, tiebreak, fmt, out):
    """Probability of every terminal score."""
    config, fixed = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    dist = sideout.score_distribution(probs, config, server=fixed)
    rows = [
        [score.alpha, score.beta, score.winner.value, prob]
        for score, prob in dist.entries.items()
    ]
    _emit(OutputTable(["alpha", "beta", "winner", "probability"], rows), fmt, out)


def _moment_rows(probs, config, server):
    agg = duration.aggregate_moments(probs, config)
    if server is not None:
        rows = [
            ["winner=A", agg.by_server_winner.get((server, Player.A))],
            ["winner=B", agg.by_server_winner.get((server, Player.B))],
            ["unconditional", agg.by_server[server]],
        ]
    else:
        rows = [
            ["winner=A", agg.by_winner.get(Player.A)],
            ["winner=B", agg.by_winner.get(Player.B)],
            ["unconditional", agg.overall],
        ]
    # an event of probability zero has no moments: empty cells
    return [[label, *((m.mean, m.sd, m.variance) if m is not None else (None,) * 3)] for label, m in rows]


def _conditional_pmf(probs, config, server, winner, score, epsilon):
    if score is not None:
        alpha, beta = score
        last = Player.A if alpha > beta else Player.B
        if config.system is ScoringSystem.RALLY_POINT:
            raise ConfigError("score-conditional rally-point durations are deterministic: d = alpha + beta")
        return duration.duration_pmf_conditional(
            alpha, beta, last, probs, epsilon, server=server
        )
    if winner is None:
        return duration.duration_pmf_unconditional(probs, config, epsilon, server=server)
    return duration.duration_pmf_winner(probs, config, winner, epsilon, server=server)


@main.command("duration")
@_game_flags
@click.option("--stat", type=click.Choice(["moments", "pmf", "quantiles"]), default="moments")
@click.option("--winner", type=click.Choice(["A", "B"]), default=None)
@click.option("--score", type=str, default=None, help="Condition on a final tally 'alpha,beta'.")
@click.option("--levels", type=str, default="0.01,0.05,0.25,0.5,0.75,0.95,0.99")
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
    config, fixed = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    win = Player(winner) if winner is not None else None
    tally = None
    if score is not None:
        parts = score.split(",")
        if len(parts) != 2:
            raise click.UsageError("--score expects 'alpha,beta'")
        tally = (int(parts[0]), int(parts[1]))
        if fixed is None:
            raise click.UsageError("--score conditions on a fixed first server; use --server")
    if stat == "moments":
        if tally is not None:
            alpha, beta = tally
            last = Player.A if alpha > beta else Player.B
            if config.system is ScoringSystem.RALLY_POINT:
                rows = [[f"score={alpha}-{beta}", float(alpha + beta), 0.0, 0.0]]
            else:
                # first-server coordinates; the law depends on q alone
                a, b, c = (alpha, beta, last) if fixed is Player.A else (beta, alpha, last.other)
                m = duration._conditional_moments(a, b, c, probs.q, probs.p_a + probs.q_a * probs.p_b)
                rows = [[f"score={alpha}-{beta}", m.mean, m.sd, m.variance]]
        else:
            rows = _moment_rows(probs, config, fixed)
        _emit(OutputTable(["conditioning", "mean", "sd", "variance"], rows), fmt, out)
        return
    pmf = _conditional_pmf(probs, config, fixed, win, tally, epsilon)
    if stat == "pmf":
        rows = [
            [int(pmf.offset + i), float(mass), pmf.truncation_bound]
            for i, mass in enumerate(pmf.masses)
        ]
        _emit(OutputTable(["rallies", "probability", "truncation_bound"], rows), fmt, out)
        return
    mode = QuantileMode(quantile_mode)
    level_values = [float(x) for x in levels.split(",") if x]
    rows = [[lv, duration.quantile(pmf, lv, mode), mode.value] for lv in level_values]
    _emit(OutputTable(["level", "rallies", "mode"], rows), fmt, out)


@main.command("compare")
@click.option("--sideout-n", type=int, default=15)
@click.option("--rallypoint-n", type=int, default=21)
@click.option("--p-grid", type=str, default="0.01:0.99:0.01", help="START:STOP:STEP inclusive grid.")
@_common_flags
@engine_errors
def cmd_compare(sideout_n, rallypoint_n, p_grid, fmt, out):
    """Side-out vs rally-point in the no-server model: win probabilities
    and duration summaries per p, with limit reference rows at p = 0, 1."""
    try:
        start, stop, step = (float(x) for x in p_grid.split(":"))
    except ValueError as exc:
        raise click.UsageError(f"bad --p-grid {p_grid!r}: {exc}") from exc
    so_cfg = GameConfig(n=sideout_n, system=ScoringSystem.SIDE_OUT)
    rp_cfg = GameConfig(n=rallypoint_n, system=ScoringSystem.RALLY_POINT)
    columns = [
        "kind", "p", "sideout_win_a", "rallypoint_win_a", "win_ratio",
        "sideout_e", "sideout_sd", "rallypoint_e", "rallypoint_sd",
        "sideout_e_win_a", "sideout_sd_win_a", "sideout_e_win_b", "sideout_sd_win_b",
        "rallypoint_e_win_a", "rallypoint_sd_win_a", "rallypoint_e_win_b", "rallypoint_sd_win_b",
    ]
    count = int(round((stop - start) / step)) + 1
    p = start + np.arange(max(count, 0)) * step
    p = p[(0.0 < p) & (p < 1.0)]

    def grid_columns(cfg):
        # the whole grid in one kernel evaluation: no-server model (p_a = p,
        # p_b = 1 - p), first server A
        rows = kernel.table(cfg.n)
        ev = kernel.evaluate(cfg.system, rows, p, 1.0 - p)
        mean, var = duration._row_moments(cfg.system, rows, ev.r_mean, ev.r_var, p, 1.0 - p)
        weight = np.stack([ev.weight, np.zeros_like(ev.weight)])  # no B-first games
        mix = {w: duration._mix(duration.event_weights(weight, (1.0, 0.0), w), mean, var) for w in (*Player, None)}
        if any((mix[w][0] <= duration._TINY).any() for w in Player):
            raise ConditioningError("conditioning event has vanished")
        cols = {w: [m, np.sqrt(v)] for w, (_, m, v) in mix.items()}
        return mix[Player.A][0], cols[None], cols[Player.A] + cols[Player.B]

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
    config, _ = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    spec = simulate.SeedSpec(seed, stream)
    sample = simulate.sample_games(probs, config, replications, spec)
    if records_out is not None:
        records = estimate.records_from_sample(sample)
        with open(records_out, "w", encoding="utf-8") as fh:
            fh.write(estimate.records_to_json_lines(records))
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
        type=click.Choice([r.value for r in matchlevel.ServerRule]),
        default=matchlevel.ServerRule.WINNER_SERVES_NEXT.value,
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
    config, _ = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    mc = matchlevel.MatchConfig(games_to_win, matchlevel.ServerRule(server_rule))
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
@click.option("--quantile-levels", type=str, default="0.5,0.9,0.95,0.99")
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
    if matches < 1:
        raise click.UsageError("--matches must be >= 1")
    config, _ = _build_config(system, n, sa, server, tiebreak)
    probs = RallyProbs(pa, pb)
    mc = matchlevel.MatchConfig(games_to_win, matchlevel.ServerRule(server_rule))
    single = matchlevel.match_duration_pmf(probs, config, mc, epsilon / matches)
    masses = single.masses
    offset = single.offset
    for _ in range(matches - 1):
        masses = np.convolve(masses, single.masses)
        offset += single.offset
    total = duration.DurationPMF(
        offset=offset, masses=masses, truncation_bound=matches * single.truncation_bound
    )
    mode = QuantileMode(quantile_mode)
    level_values = [float(x) for x in quantile_levels.split(",") if x]
    rows = [
        [matches, lv, duration.quantile(total, lv, mode), mode.value]
        for lv in level_values
    ]
    _emit(OutputTable(["matches", "level", "rallies", "mode"], rows), fmt, out)


if __name__ == "__main__":
    main()
