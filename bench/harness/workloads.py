"""The four workloads.  Each draws its inputs from the run's seed, plans
a fixed list of rounds of operations, and turns the recorded samples into
metrics.

Every workload is a closed loop from one client: one operation in
flight, the next sent when the previous one has returned.  How many
operations a run makes depends only on the seed and the run's nominal
length in seconds, never on how fast they go, so two runs with the same
arguments attempt (and fail) the same operations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checks
from .ops import CheckFailed, Op, Sample, require_finite
from .sampler import Sampler
from .stats import median, tail
from .tracing import Tracer


class CommandFailed(Exception):
    """A CLI process exited with a non-zero code."""


@dataclass
class Reported:
    """A metric as printed in the report: value, unit and sample count."""

    value: float | None  # None where the metric is undefined for this run
    unit: str
    n: int
    note: str = ""


@dataclass
class Context:
    root: Path
    bench: Path
    work: Path
    seed: int
    env: dict
    deadline: float  # perf_counter time by which every child must have ended
    sampler: Sampler
    rng: random.Random = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)

    def run_cli(self, args: list[str], tracer) -> str:
        """Run one rallystats command in a fresh process and return its
        stdout.  Traced, it runs under bench/traced_cli.py; untraced, under
        bench/sampled_cli.py, which samples the host speed in its place."""
        traced = isinstance(tracer, Tracer)
        with tracer.span(f"cli.{args[0]}" if args else "import") as sp:
            out_file = self.work / f"child-{time.perf_counter_ns()}.json"
            runner = "traced_cli.py" if traced else "sampled_cli.py"
            cmd = [sys.executable, str(self.bench / runner), str(out_file), *args]
            with contextlib.ExitStack() as stack:
                if not traced:
                    stack.enter_context(self.sampler.paused())
                proc = subprocess.run(
                    cmd,
                    cwd=self.root,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=max(1.0, self.deadline - time.perf_counter()),
                )
            with open(out_file, encoding="utf-8") as fh:
                record = json.load(fh)
            out_file.unlink()
            if traced:
                tracer.adopt(record, sp)
            else:
                self.sampler.adopt(record)
            if proc.returncode != 0:
                raise CommandFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout


def _round_seconds(rounds, kind: str) -> list[float]:
    return [sum(s.seconds for s in samples) for k, samples in rounds if k == kind]


def _ok_samples(rounds, kind: str) -> list[Sample]:
    return [s for k, samples in rounds if k == kind for s in samples if s.ok]


def _all_samples(rounds, kind: str) -> list[Sample]:
    return [s for k, samples in rounds if k == kind for s in samples]


def _count(seconds: float, nominal_s: float) -> int:
    """How many operations of `nominal_s` seconds on the reference host
    fill a run of `seconds`; at least one."""
    return max(1, round(seconds / nominal_s))


def _scaled(samples: list[Sample]) -> list[float]:
    return [s.scaled for s in samples]


class Workload:
    name = ""

    def plan(self, seconds: float) -> list[tuple[str, list[Op]]]:
        """The run's rounds, as (kind, [Op]), fixed by the seed and `seconds`."""
        raise NotImplementedError

    def probe(self, tracer) -> None:
        """Extra calls made only in traced runs, outside the overhead pairing."""

    def end_to_end(self, rounds) -> tuple[float, float]:
        """(op_p50_s, work_per_s) from the untraced rounds, timed at the
        reference host speed."""
        raise NotImplementedError

    def report(self, rounds) -> dict[str, Reported]:
        raise NotImplementedError


# ---------------------------------------------------------------- cli-session

_N_CHOICES = (9, 11, 15, 21)
_SCORE_COLUMNS = ["alpha", "beta", "winner", "probability"]
_SIM_COLUMNS = [
    "replications", "wins_a", "wins_b", "p_hat_a", "p_hat_b",
    "e_hat", "v_hat", "e_hat_win_a", "v_hat_win_a", "e_hat_win_b", "v_hat_win_b",
]
_SIM_GAMES = 10_000


class CliSession(Workload):
    """A fixed mix of light commands, each a fresh `python -m rallystats.cli`
    process, with seeded game parameters.  A run repeats the whole mix."""

    name = "cli-session"
    # (command, extra flags); --tiebreak 3 on `match` exits 3 at the seed
    # commit (tie-break durations are unsupported) and counts as failed.
    MIX = (
        ("score-dist", ["--server", "A"]),
        ("score-dist", ["--system", "rallypoint", "--sa", "0.5"]),
        ("score-dist", ["--tiebreak", "3", "--server", "B"]),
        ("duration", ["--stat", "moments", "--sa", "0.5"]),
        ("duration", ["--stat", "pmf", "--server", "A"]),
        ("duration", ["--stat", "quantiles", "--quantile-mode", "interpolated", "--sa", "0.5"]),
        ("match", ["-m", "2", "--sa", "0.5"]),
        ("match", ["-m", "3", "--server", "A"]),
        ("match", ["-m", "3", "--tiebreak", "3", "--server", "A"]),
        ("plan", ["-m", "2", "--matches", "16", "--sa", "0.5"]),
        ("simulate", ["-j", str(_SIM_GAMES), "--sa", "0.5"]),
        ("estimate", ["--mode", "score"]),
        ("estimate", ["--mode", "score-duration"]),
    )
    MIX_S = 12.0  # the whole mix on the reference host

    def __init__(self, ctx: Context):
        from rallystats import GameConfig, RallyProbs, SeedSpec, estimate, simulate

        self.ctx = ctx
        rng = ctx.rng
        probs = RallyProbs(round(rng.uniform(0.35, 0.75), 4), round(rng.uniform(0.35, 0.75), 4))
        sample = simulate.sample_games(probs, GameConfig(n=15, s_a=0.5), 50, SeedSpec(ctx.seed % 2**32))
        self.records = ctx.work / "records.jsonl"
        self.records.write_text(estimate.records_to_json_lines(estimate.records_from_sample(sample)))

    def _game_args(self) -> tuple[list[str], int, float, float]:
        rng = self.ctx.rng
        n = rng.choice(_N_CHOICES)
        pa = round(rng.uniform(0.35, 0.75), 4)
        pb = round(rng.uniform(0.35, 0.75), 4)
        return ["--n", str(n), "--pa", str(pa), "--pb", str(pb)], n, pa, pb

    def plan(self, seconds):
        rounds = []
        for _ in range(_count(seconds, self.MIX_S)):
            for command, flags in self.MIX:
                if command == "estimate":
                    args = [command, "--input", str(self.records), *flags]
                    check = self._check_estimate(flags[1])
                else:
                    game, n, pa, pb = self._game_args()
                    args = [command, *game, *flags]
                    if command == "simulate":
                        args += ["--seed", str(self.ctx.rng.randrange(2**31))]
                    check = getattr(self, "_check_" + command.replace("-", "_"))(args, n, pa, pb)
                rounds.append(("cli", [Op(f"cli.{command}", lambda tr, a=args: self.ctx.run_cli(a, tr), check)]))
        return rounds

    # -- output checks, one factory per command

    @staticmethod
    def _check_score_dist(args, n, pa, pb):
        tiebreak = 3 if "--tiebreak" in args else None

        def check(out):
            rows = checks.parse_table(out, _SCORE_COLUMNS)
            expected = 2 * n if tiebreak is None else 2 * (n - 1) + 2 * tiebreak
            if len(rows) != expected:
                raise CheckFailed(f"{len(rows)} terminal scores, expected {expected}")
            probs = [checks.num(r["probability"]) for r in rows]
            checks.check_probabilities(probs)
            for r in rows:
                a, b = int(r["alpha"]), int(r["beta"])
                if (r["winner"] == "A") != (a > b):
                    raise CheckFailed(f"winner {r['winner']} at {a}-{b}")
            checks.check_total(probs, 1.0, 1e-12, "score distribution")

        return check

    @staticmethod
    def _check_duration(args, n, pa, pb):
        stat = args[args.index("--stat") + 1]

        def check(out):
            if stat == "moments":
                rows = checks.parse_table(out, ["conditioning", "mean", "sd", "variance"])
                for r in rows:
                    mean, sd, var = (checks.num(r[k]) for k in ("mean", "sd", "variance"))
                    if mean < n or sd < 0 or abs(sd * sd - var) > 1e-9 * max(var, 1.0):
                        raise CheckFailed(f"bad moments {r}")
            elif stat == "pmf":
                rows = checks.parse_table(out, ["rallies", "probability", "truncation_bound"])
                rallies = [int(r["rallies"]) for r in rows]
                if rallies != list(range(rallies[0], rallies[0] + len(rows))) or rallies[0] < n:
                    raise CheckFailed("PMF support is not consecutive from >= n")
                masses = [checks.num(r["probability"]) for r in rows]
                checks.check_probabilities(masses)
                bound = checks.num(rows[0]["truncation_bound"])
                checks.check_total(masses, 1.0, bound + 1e-12, "duration PMF")
            else:
                rows = checks.parse_table(out, ["level", "rallies", "mode"])
                values = [checks.num(r["rallies"]) for r in rows]
                if len(rows) != 7 or min(values) < n:
                    raise CheckFailed(f"bad quantiles {values}")
                checks.check_nondecreasing(values, "quantiles")

        return check

    @staticmethod
    def _check_match(args, n, pa, pb):
        m = int(args[args.index("-m") + 1])

        def check(out):
            (row,) = checks.parse_table(
                out, ["match_win_a", "match_win_b", "e_rallies", "sd_rallies", "truncation_bound"]
            )
            wins = [checks.num(row["match_win_a"]), checks.num(row["match_win_b"])]
            checks.check_probabilities(wins)
            checks.check_total(wins, 1.0, 1e-12, "match win probabilities")
            if checks.num(row["e_rallies"]) < m * n or checks.num(row["sd_rallies"]) < 0:
                raise CheckFailed(f"bad match duration {row}")

        return check

    @staticmethod
    def _check_plan(args, n, pa, pb):
        def check(out):
            rows = checks.parse_table(out, ["matches", "level", "rallies", "mode"])
            if len(rows) != 4 or any(r["matches"] != "16" for r in rows):
                raise CheckFailed("plan table shape")
            values = [checks.num(r["rallies"]) for r in rows]
            if values[0] < 16 * 2 * n:
                raise CheckFailed(f"plan total {values[0]} below 16 matches of 2 games")
            checks.check_nondecreasing(values, "plan quantiles")

        return check

    @staticmethod
    def _check_simulate(args, n, pa, pb):
        def check(out):
            from rallystats import GameConfig, Player, RallyProbs, duration, sideout

            (row,) = checks.parse_table(out, _SIM_COLUMNS)
            if int(row["replications"]) != _SIM_GAMES or int(row["wins_a"]) + int(row["wins_b"]) != _SIM_GAMES:
                raise CheckFailed(f"replication counts {row}")
            probs, config = RallyProbs(pa, pb), GameConfig(n=n, s_a=0.5)
            win_a = 0.5 * sum(sideout.game_win_prob(Player.A, sv, probs, config) for sv in Player)
            overall = duration.aggregate_moments(probs, config).overall
            within_5se(checks.num(row["p_hat_a"]), win_a, math.sqrt(win_a * (1 - win_a) / _SIM_GAMES), "p_hat_a")
            within_5se(checks.num(row["e_hat"]), overall.mean, math.sqrt(overall.variance / _SIM_GAMES), "e_hat")

        return check

    @staticmethod
    def _check_estimate(mode):
        def check(out):
            (row,) = checks.parse_table(
                out, ["p_a_hat", "p_b_hat", "log_likelihood", "converged", "boundary", "mode", "model"]
            )
            checks.check_probabilities([checks.num(row["p_a_hat"]), checks.num(row["p_b_hat"])])
            if checks.num(row["log_likelihood"]) > 0 or row["mode"] != mode:
                raise CheckFailed(f"bad estimate {row}")

        return check

    def end_to_end(self, rounds):
        ok = _scaled(_ok_samples(rounds, "cli"))
        return median(ok), len(ok) / sum(_scaled(_all_samples(rounds, "cli")))

    @staticmethod
    def ok_latencies(rounds) -> list[float]:
        return [s.seconds for s in _ok_samples(rounds, "cli")]

    def report(self, rounds):
        ok = self.ok_latencies(rounds)
        out = {"cli_p50_s": Reported(median(ok), "s", len(ok))}
        t = tail(ok)
        if t is not None:
            out["cli_tail_s"] = Reported(t[0], "s", t[2], f"p{t[1]:.0f}")
        else:
            out["cli_tail_s"] = Reported(None, "s", len(ok), "fewer than 11 samples")
        return out


def within_5se(estimate: float, exact: float, se: float, what: str) -> None:
    if abs(estimate - exact) > 5.0 * se:
        raise CheckFailed(f"{what}={estimate!r} is more than 5 SE ({se:.3g}) from exact {exact!r}")


# ---------------------------------------------------------------- paper-sweep

# The paper's grid, 0.0005:0.9995:0.0005, is split into _SHARDS interleaved
# shards: shard j holds grid points j, j + _SHARDS, ...
_SWEEP_POINTS = 1999
_SWEEP_STEP = 0.0005
_SHARDS = 8
_SHARD_STEP = _SHARDS * _SWEEP_STEP
_SHARD_S = 5.5  # one shard's `compare` on the reference host
_REFERENCE_POINTS = 3  # per shard, checked against mpmath
_MAX_REL_ERR = 1e-9  # the CLI prints 12 significant digits


def sweep_shard(j: int) -> tuple[list[str], list[float]]:
    """The `compare` arguments for shard j and its p values, formed as the
    CLI forms its grid (start + i * step)."""
    start = round(_SWEEP_STEP * (j + 1), 4)
    last = (_SWEEP_POINTS - 1 - j) // _SHARDS
    stop = round(start + last * _SHARD_STEP, 4)
    args = ["compare", "--sideout-n", "15", "--rallypoint-n", "21", "--p-grid", f"{start}:{stop}:{_SHARD_STEP}"]
    return args, [start + i * _SHARD_STEP for i in range(last + 1)]


class PaperSweep(Workload):
    """The paper's side-out vs rally-point comparison over the no-server
    grid at step 0.0005, one `compare` process per interleaved shard of
    the grid; the seed picks the shards and their order."""

    name = "paper-sweep"
    COLUMNS = [
        "kind", "p", "sideout_win_a", "rallypoint_win_a", "win_ratio",
        "sideout_e", "sideout_sd", "rallypoint_e", "rallypoint_sd",
        "sideout_e_win_a", "sideout_sd_win_a", "sideout_e_win_b", "sideout_sd_win_b",
        "rallypoint_e_win_a", "rallypoint_sd_win_a", "rallypoint_e_win_b", "rallypoint_sd_win_b",
    ]

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rel_errs: list[float] = []
        self.points: list[float] = []  # every p the run's shards cover

    def plan(self, seconds):
        count = _count(seconds, _SHARD_S)
        order = []
        while len(order) < count:
            order += self.ctx.rng.sample(range(_SHARDS), _SHARDS)
        rounds = []
        for j in order[:count]:
            args, ps = sweep_shard(j)
            self.points += ps
            reference = sorted(self.ctx.rng.sample(range(len(ps)), _REFERENCE_POINTS))
            check = functools.partial(self.check, ps=ps, reference=reference)
            rounds.append(("sweep", [Op("cli.compare", lambda tr, a=args: self.ctx.run_cli(a, tr), check, len(ps))]))
        return rounds

    def check(self, out, ps, reference):
        rows = checks.parse_table(out, self.COLUMNS)
        grid = [r for r in rows if r["kind"] == "grid"]
        if len(grid) != len(ps) or len(rows) != len(ps) + 2:
            raise CheckFailed(f"{len(grid)} grid rows, expected {len(ps)} plus 2 limit rows")
        for r in grid:
            checks.check_probabilities([checks.num(r["sideout_win_a"]), checks.num(r["rallypoint_win_a"])])
            for col in self.COLUMNS[5:]:
                checks.num(r[col])
        worst = 0.0
        for i in reference:
            p, r = ps[i], grid[i]
            if abs(checks.num(r["p"]) - p) > checks.print_rounding(p):
                raise CheckFailed(f"grid row {i} has p={r['p']}, expected {p}")
            worst = max(
                worst,
                checks.rel_err(checks.num(r["sideout_win_a"]), checks.sideout_win_a_mp(p, 15)),
                checks.rel_err(checks.num(r["rallypoint_win_a"]), checks.rallypoint_win_a_mp(p, 21)),
            )
        self.rel_errs.append(worst)
        if worst > _MAX_REL_ERR:
            raise CheckFailed(f"win probability relative error {worst:.3g} against mpmath")

    def probe(self, tracer):
        """Score distributions alone over the run's grid points, to split
        the probability kernel from the moments layer."""
        from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, rallypoint, sideout

        so_cfg = GameConfig(n=15)
        rp_cfg = GameConfig(n=21, system=ScoringSystem.RALLY_POINT)
        for p in self.points:
            probs = RallyProbs.no_server(p)
            tracer.call("sideout.score_distribution", sideout.score_distribution, probs, so_cfg, server=Player.A)
            tracer.call("rallypoint.score_distribution", rallypoint.score_distribution, probs, rp_cfg, server=Player.A)

    @staticmethod
    def _points(samples: list[Sample]) -> int:
        return sum(s.ok * s.work for s in samples)

    def end_to_end(self, rounds):
        samples = _all_samples(rounds, "sweep")
        ok = _ok_samples(rounds, "sweep")
        return median(_scaled(ok)), self._points(samples) / sum(_scaled(samples))

    def report(self, rounds):
        samples = _all_samples(rounds, "sweep")
        return {
            "sweep_points_per_s": Reported(
                self._points(samples) / sum(s.seconds for s in samples), "1/s", len(samples)
            ),
            "sweep_max_rel_err": Reported(
                max(self.rel_errs) if self.rel_errs else None, "ratio",
                _REFERENCE_POINTS * 2 * len(self.rel_errs),
            ),
        }


# ---------------------------------------------------------------- mc-study

_BULK_GAMES = 1_000_000
_STUDY_GAMES = 200
_BULK_S = 3.0  # one bulk experiment on the reference host
_BULK_SHARE = 0.4  # of the run
_REP_S = 0.065  # one replication on the reference host


class McStudy(Workload):
    """A library session: bulk Monte Carlo experiments, then repeated
    small-sample MLE replications (the estimator MSE study)."""

    name = "mc-study"

    def __init__(self, ctx: Context):
        from rallystats import GameConfig, Player, RallyProbs, SeedSpec, duration, sideout

        rng = ctx.rng
        # A narrow band around the study point keeps the work per game, and
        # so games/s, comparable across seeds.
        self.probs = RallyProbs(round(rng.uniform(0.58, 0.62), 4), round(rng.uniform(0.48, 0.52), 4))
        self.config = GameConfig(n=15, s_a=0.5)
        self.win_a = 0.5 * sum(sideout.game_win_prob(Player.A, sv, self.probs, self.config) for sv in Player)
        self.overall = duration.aggregate_moments(self.probs, self.config).overall
        self.bulk_seed = SeedSpec(ctx.seed % 2**32)
        self.study_seed = SeedSpec(ctx.seed % 2**32, 1)

    def _check_estimators(self, p_hat, e_hat, games):
        within_5se(p_hat, self.win_a, math.sqrt(self.win_a * (1 - self.win_a) / games), "win frequency")
        within_5se(e_hat, self.overall.mean, math.sqrt(self.overall.variance / games), "mean duration")

    def plan(self, seconds):
        from rallystats import Player, core, estimate, simulate

        def bulk(tr, seed):
            return tr.call("simulate.run_experiment", simulate.run_experiment, self.probs, self.config, _BULK_GAMES, seed)

        def check_bulk(report):
            require_finite(report.e_hat, report.v_hat)
            self._check_estimators(report.p_hat[Player.A], report.e_hat, _BULK_GAMES)

        experiments = _count(_BULK_SHARE * seconds, _BULK_S)
        rounds = [
            ("bulk", [Op("simulate.run_experiment", lambda tr, i=i: bulk(tr, self.bulk_seed.child(i)), check_bulk, _BULK_GAMES)])
            for i in range(experiments)
        ]
        for i in range(_count(max(seconds - experiments * _BULK_S, _REP_S), _REP_S)):
            def replicate(tr, seed=self.study_seed.child(i)):
                tr.call("core.validate", core.validate, self.probs, self.config)
                sample = tr.call("simulate.sample_games", simulate.sample_games, self.probs, self.config, _STUDY_GAMES, seed)
                records = tr.call("estimate.records_from_sample", estimate.records_from_sample, sample)
                fits = [
                    tr.call("estimate.fit-score", estimate.fit, records, estimate.FitMode.SCORE_ONLY),
                    tr.call("estimate.fit-score-duration", estimate.fit, records, estimate.FitMode.SCORE_DURATION),
                ]
                return sample, records, fits

            def check_replication(result):
                sample, records, fits = result
                if len(records) != _STUDY_GAMES:
                    raise CheckFailed(f"{len(records)} records from {_STUDY_GAMES} games")
                self._check_estimators(float(sample.winner_a.mean()), float(sample.duration.mean()), _STUDY_GAMES)
                for f in fits:
                    require_finite(f.log_likelihood)
                    checks.check_probabilities([f.p_a, f.p_b])

            rounds.append(("rep", [Op("study.replication", replicate, check_replication)]))
        return rounds

    def end_to_end(self, rounds):
        bulk = _all_samples(rounds, "bulk")
        games = sum(s.ok * s.work for s in bulk)
        return median(_scaled(_ok_samples(rounds, "rep"))), games / sum(_scaled(bulk))

    def report(self, rounds):
        bulk, reps = _all_samples(rounds, "bulk"), _all_samples(rounds, "rep")
        games = sum(s.ok * s.work for s in bulk)
        return {
            "mc_games_per_s": Reported(games / sum(s.seconds for s in bulk), "1/s", len(bulk)),
            "study_reps_per_s": Reported(sum(s.ok for s in reps) / sum(s.seconds for s in reps), "1/s", len(reps)),
        }


# ---------------------------------------------------------------- duration-tail

_TAIL_PS = (0.05, 0.01, 0.001, 0.0001)
# The winner PMF at 1e-4 would add another 9 s of the same exchange series
# as the unconditional one, and the match convolution grows quadratically
# in the bins, so these two stop earlier.
_WINNER_PMF_PS = (0.05, 0.01, 0.001)
_MATCH_PMF_PS = (0.05, 0.01)
_EPSILON = 1e-12
_LADDER_S = 12.5  # one ladder on the reference host


class DurationTail(Workload):
    """Exact duration laws as the exchange probability q = (1-p)^2 goes
    from .90 to .9998: game PMFs, quantiles and the best-of-5 match law."""

    name = "duration-tail"

    def __init__(self, ctx: Context):
        from rallystats import GameConfig, MatchConfig, Player

        rng = ctx.rng
        self.config = GameConfig(n=15, s_a=0.5)
        self.match = MatchConfig(3)
        self.winner = rng.choice([Player.A, Player.B])
        self.levels = sorted(round(rng.uniform(0.5, 0.999), 4) for _ in range(4))
        self.excess: list[float] = []

    def _check_pmf(self, pmf):
        masses = pmf.masses
        if not all(map(math.isfinite, (float(masses.sum()), pmf.truncation_bound))) or masses.min() < 0:
            raise CheckFailed("PMF has negative or non-finite mass")
        if pmf.truncation_bound > _EPSILON:
            raise CheckFailed(f"truncation bound {pmf.truncation_bound} above epsilon")
        self.excess.append(max(0.0, abs(1.0 - pmf.total_mass) - pmf.truncation_bound))

    def plan(self, seconds):
        from rallystats import Player, RallyProbs, core, duration, matchlevel

        rounds = []
        for _ in range(_count(seconds, _LADDER_S)):
            ops = []
            for p in _TAIL_PS:
                probs = RallyProbs(p, p)
                state = {}

                def unconditional(tr, probs=probs, state=state):
                    tr.call("core.validate", core.validate, probs, self.config)
                    state["pmf"] = tr.call(
                        "duration.duration_pmf_unconditional", duration.duration_pmf_unconditional,
                        probs, self.config, _EPSILON,
                    )
                    return state["pmf"]

                def winner(tr, probs=probs):
                    return tr.call(
                        "duration.duration_pmf_winner", duration.duration_pmf_winner,
                        probs, self.config, self.winner, _EPSILON,
                    )

                def quantiles(tr, state=state):
                    return [tr.call("duration.quantile", duration.quantile, state["pmf"], lv) for lv in self.levels]

                def check_quantiles(values, state=state):
                    require_finite(*values)
                    checks.check_nondecreasing(values, "quantiles")
                    support = state["pmf"].support()
                    if values[0] < support[0] or values[-1] > support[-1]:
                        raise CheckFailed("quantile outside the support")

                def match_win(tr, probs=probs):
                    return [
                        tr.call("matchlevel.match_win_prob", matchlevel.match_win_prob, probs, self.config, self.match, w)
                        for w in Player
                    ]

                def check_match_win(wins):
                    checks.check_probabilities(wins)
                    if abs(sum(wins) - 1.0) > 1e-12:
                        raise CheckFailed(f"match win probabilities sum to {sum(wins)!r}")

                ops += [
                    Op("duration.duration_pmf_unconditional", unconditional, self._check_pmf),
                    Op("duration.quantile", quantiles, check_quantiles),
                    Op("matchlevel.match_win_prob", match_win, check_match_win),
                ]
                if p in _WINNER_PMF_PS:
                    ops.append(Op("duration.duration_pmf_winner", winner, self._check_pmf))
                if p in _MATCH_PMF_PS:
                    def match_pmf(tr, probs=probs):
                        return tr.call(
                            "matchlevel.match_duration_pmf", matchlevel.match_duration_pmf,
                            probs, self.config, self.match, _EPSILON,
                        )

                    ops.append(Op("matchlevel.match_duration_pmf", match_pmf, self._check_pmf))
            rounds.append(("ladder", ops))
        return rounds

    def end_to_end(self, rounds):
        ladders = [sum(_scaled(samples)) for _, samples in rounds]
        return median(ladders), len(_ok_samples(rounds, "ladder")) / sum(ladders)

    def report(self, rounds):
        ladders = _round_seconds(rounds, "ladder")
        return {
            "tail_solve_s": Reported(median(ladders), "s", len(ladders)),
            "pmf_mass_excess": Reported(
                max(self.excess) if self.excess else None, "prob", len(self.excess)
            ),
        }


WORKLOADS = {w.name: w for w in (CliSession, PaperSweep, McStudy, DurationTail)}
