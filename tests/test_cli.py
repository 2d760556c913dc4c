import ast
import csv
import hashlib
import io
import itertools
import json
import math
import pkgutil
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

import rallystats
from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, TerminalScore
from rallystats import cli, duration, estimate, matchlevel, sideout
from rallystats.cli import main

from oracles import compose_match_durations, compose_match_win_probs, enumerate_sideout, served_by

A, B = Player.A, Player.B
GOLDEN = Path(__file__).parent / "golden" / "cli_estimate.json"
COMMANDS = json.loads((Path(__file__).parent / "golden" / "cli_commands.json").read_text())


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


class TestScoreDist:
    def test_rows_sum_to_one_and_reproduce_win_prob(self, runner):
        out = run_ok(runner, [
            "score-dist", "--system", "sideout", "--n", "15",
            "--pa", ".5", "--pb", ".5", "--server", "A",
        ])
        rows = parse_csv(out)
        assert len(rows) == 30
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        win_a = sum(float(r["probability"]) for r in rows if r["winner"] == "A")
        assert win_a == pytest.approx(0.53, abs=0.005)

    def test_certain_server_single_nonzero_row(self, runner):
        out = run_ok(runner, [
            "score-dist", "--system", "sideout", "--n", "15",
            "--pa", "1", "--pb", ".5", "--server", "A",
        ])
        rows = parse_csv(out)
        nonzero = [r for r in rows if float(r["probability"]) > 0]
        assert len(nonzero) == 1
        assert (nonzero[0]["alpha"], nonzero[0]["beta"]) == ("15", "0")
        assert float(nonzero[0]["probability"]) == pytest.approx(1.0, abs=1e-12)

    def test_tiebreak_scores_present(self, runner):
        out = run_ok(runner, [
            "score-dist", "--n", "9", "--pa", ".5", "--pb", ".5",
            "--server", "A", "--tiebreak", "2",
        ])
        rows = parse_csv(out)
        assert any(r["alpha"] == "10" and r["beta"] == "9" for r in rows)
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_json_round_trip(self, runner):
        out = run_ok(runner, [
            "score-dist", "--n", "5", "--pa", ".6", "--pb", ".5",
            "--server", "A", "--format", "json",
        ])
        payload = json.loads(out)
        assert payload["columns"] == ["alpha", "beta", "winner", "probability"]
        assert len(payload["rows"]) == 10
        total = sum(row[3] for row in payload["rows"])
        assert total == pytest.approx(1.0, abs=1e-9)


class TestDuration:
    def test_unconditional_moments_match_published(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", ".6", "--pb", ".5",
            "--server", "A", "--stat", "moments",
        ])
        rows = {r["conditioning"]: r for r in parse_csv(out)}
        assert float(rows["unconditional"]["mean"]) == pytest.approx(41.6, abs=0.05)
        assert float(rows["unconditional"]["sd"]) == pytest.approx(9.5, abs=0.05)

    def test_pmf_parity_and_truncation_column(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "9", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--stat", "pmf", "--winner", "A", "--epsilon", "1e-10",
        ])
        rows = parse_csv(out)
        assert "truncation_bound" in rows[0]
        by_d = {int(r["rallies"]): float(r["probability"]) for r in rows}
        # first server A and A wins: only even offsets from 9 + k carry mass
        for d, mass in by_d.items():
            if mass > 0:
                assert any((d - (9 + k)) % 2 == 0 for k in range(9))
        assert sum(by_d.values()) == pytest.approx(1.0, abs=1e-9)

    def test_score_conditional_moments(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", ".7", "--pb", ".5",
            "--server", "A", "--stat", "moments", "--score", "0,15",
        ])
        rows = parse_csv(out)
        assert float(rows[0]["mean"]) == pytest.approx(21.29, abs=0.01)

    def test_score_conditional_moments_near_q_one(self, runner):
        # taken from q alone, 1 - q cancels here and the mean was 9e-10 off
        pa, pb = 1e-9, 1e-7
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", str(pa), "--pb", str(pb),
            "--server", "A", "--stat", "moments", "--score", "15,0",
        ])
        row = parse_csv(out)[0]
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(pa)) * (1 - mpmath.mpf(pb))
            exact = {"mean": 15 * (1 + q) / (1 - q), "variance": 60 * q / (1 - q) ** 2}
        for col, value in exact.items():
            # the table prints 12 significant digits; round the reference alike
            assert float(row[col]) == pytest.approx(float(f"{float(value):.12g}"), rel=1e-12)

    def test_impossible_winner_prints_empty_cells(self, runner):
        # a server with p_a = 1 never loses its A-game: the winner=B row has
        # no moments, while the other rows do
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", "1", "--pb", ".5",
            "--server", "A", "--stat", "moments",
        ])
        assert out == (
            "conditioning,mean,sd,variance\n"
            "winner=A,15,0,0\n"
            "winner=B,,,\n"
            "unconditional,15,0,0\n"
        )

    def test_score_must_end_a_game_to_n(self, runner):
        # (3, k) and (k, 3) with 0 <= k < 3 end a game to 3; no other tally does
        for alpha in range(-1, 5):
            for beta in range(-1, 5):
                result = runner.invoke(main, [
                    "duration", "--n", "3", "--pa", ".6", "--pb", ".5", "--score", f"{alpha},{beta}",
                ])
                end = max(alpha, beta) == 3 and 0 <= min(alpha, beta) < 3
                assert result.exit_code == (0 if end else 3), (alpha, beta, result.output)

    @pytest.mark.parametrize("server", ["A", "B"])
    def test_score_ending_a_tiebreak_against_enumeration(self, runner, server):
        # 11,9 ends the extension of a game to 9 tied at 8 all, reached by
        # either tying scorer
        args = ["duration", "--n", "9", "--pa", ".6", "--pb", ".5", "--tiebreak", "3", "--server", server, "--score", "11,9"]
        outcomes, leftover = enumerate_sideout(0.6, 0.5, 9, server=Player(server), tol=1e-30, tiebreak=3)
        assert leftover < 1e-25
        law = {d: mass for (a, b, _, d), mass in outcomes.items() if (a, b) == (11, 9)}
        total = sum(law.values())
        law = {d: mass / total for d, mass in law.items()}
        mean = sum(d * mass for d, mass in law.items())
        var = sum((d - mean) ** 2 * mass for d, mass in law.items())
        row = parse_csv(run_ok(runner, [*args, "--stat", "moments"]))[0]
        assert row["conditioning"] == "score=11-9"
        assert float(row["mean"]) == pytest.approx(float(cell(mean)), rel=1e-11)
        assert float(row["variance"]) == pytest.approx(float(cell(var)), rel=1e-11)
        rows = parse_csv(run_ok(runner, [*args, "--stat", "pmf", "--epsilon", "1e-14"]))
        got = {int(r["rallies"]): float(r["probability"]) for r in rows}
        # each printed mass is rounded to 12 significant digits, by at most
        # 5e-12 of itself
        l1 = sum(abs(got.get(d, 0.0) - law.get(d, 0.0)) for d in set(got) | set(law))
        assert l1 <= float(rows[0]["truncation_bound"]) + 5e-12 + 1e-14

    def test_score_must_end_a_tiebreak_game(self, runner):
        # a game to 3 with a tie-break of 2 ends at (3, k) and (k, 3) with
        # k < 2, and from 2 all at (4, k) and (k, 4) with k in (2, 3)
        ends = {(3, 0), (3, 1), (4, 2), (4, 3)}
        for alpha in range(-1, 6):
            for beta in range(-1, 6):
                result = runner.invoke(main, [
                    "duration", "--n", "3", "--pa", ".6", "--pb", ".5", "--tiebreak", "2", "--server", "B",
                    "--score", f"{alpha},{beta}",
                ])
                end = (alpha, beta) in ends or (beta, alpha) in ends
                assert result.exit_code == (0 if end else 3), (alpha, beta, result.output)

    @pytest.mark.parametrize("stat", ["moments", "pmf"])
    def test_score_of_probability_zero_is_3(self, runner, stat):
        # a first server with p_a = 1 never loses its A-game: 3,5 cannot end it
        result = runner.invoke(main, [
            "duration", "--n", "5", "--pa", "1", "--pb", ".5", "--server", "A", "--score", "3,5", "--stat", stat,
        ])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "error: P[score 3,5] underflowed\n"

    def test_score_conditioning_mixes_first_servers_at_sa(self, runner):
        # --sa mixes the first servers as the library does: at s_a = .3 the
        # mean given 15-10 (45.5592) lies between A first and B first
        probs, score = RallyProbs(0.6, 0.5), (15, 10)
        args = ["duration", "--n", "15", "--pa", ".6", "--pb", ".5", "--sa", ".3", "--score", "15,10"]
        want = duration.score_moments(probs, GameConfig(n=15, s_a=0.3), score)
        row = parse_csv(run_ok(runner, [*args, "--stat", "moments"]))[0]
        assert [row[c] for c in ("mean", "sd", "variance")] == [cell(want.mean), cell(want.sd), cell(want.variance)]
        by_server = [duration.score_moments(probs, GameConfig(n=15, s_a=s_a), score).mean for s_a in (1.0, 0.0)]
        assert by_server[0] < want.mean < by_server[1]
        assert want.mean == pytest.approx(45.5592, abs=1e-4)
        pmf = duration.score_pmf(probs, GameConfig(n=15, s_a=0.3), score)
        rows = parse_csv(run_ok(runner, [*args, "--stat", "pmf"]))
        assert rows == [
            {"rallies": str(pmf.offset + i), "probability": cell(mass), "truncation_bound": cell(pmf.truncation_bound)}
            for i, mass in enumerate(pmf.masses)
        ]

    def test_quantiles_ordered(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--stat", "quantiles", "--levels", "0.25,0.5,0.75",
            "--quantile-mode", "interpolated",
        ])
        values = [float(r["rallies"]) for r in parse_csv(out)]
        assert values == sorted(values)


class TestCompare:
    def test_grid_and_limit_rows(self, runner):
        out = run_ok(runner, ["compare", "--p-grid", "0.2:0.8:0.2"])
        rows = parse_csv(out)
        grid_rows = [r for r in rows if r["kind"] == "grid"]
        limit_rows = [r for r in rows if r["kind"] == "limit"]
        assert len(grid_rows) == 4
        assert len(limit_rows) == 2
        lim0 = next(r for r in limit_rows if float(r["p"]) == 0.0)
        lim1 = next(r for r in limit_rows if float(r["p"]) == 1.0)
        assert float(lim0["sideout_e"]) == pytest.approx(16.0)
        assert float(lim1["sideout_e"]) == pytest.approx(15.0)
        for r in grid_rows:
            assert float(r["rallypoint_sd"]) <= float(r["sideout_sd"])

    def test_rows_are_the_aggregate_moments_of_each_p(self, runner):
        rows = [r for r in parse_csv(run_ok(runner, ["compare", "--p-grid", "0.05:0.95:0.15"])) if r["kind"] == "grid"]
        p = 0.05 + np.arange(7) * 0.15  # the grid as the CLI forms it
        assert len(rows) == p.size
        for r, x in zip(rows, p):
            so = duration.aggregate_moments(RallyProbs.no_server(x), GameConfig(n=15))
            rp = duration.aggregate_moments(RallyProbs.no_server(x), GameConfig(n=21, system=ScoringSystem.RALLY_POINT))
            for prefix, agg in (("sideout", so), ("rallypoint", rp)):
                assert r[f"{prefix}_win_a"] == cell(agg.win_probs[(A, A)])
                for suffix, m in (("", agg.by_server[A]), ("_win_a", agg.by_server_winner[(A, A)]),
                                  ("_win_b", agg.by_server_winner[(A, B)])):
                    assert [r[f"{prefix}_e{suffix}"], r[f"{prefix}_sd{suffix}"]] == [cell(m.mean), cell(m.sd)]

    def test_columns_are_documented_order(self, runner):
        out = run_ok(runner, ["compare", "--p-grid", "0.5:0.5:0.1"])
        header = out.splitlines()[0].split(",")
        assert header[:5] == ["kind", "p", "sideout_win_a", "rallypoint_win_a", "win_ratio"]


class TestSimulateAndEstimate:
    def test_deterministic_output_for_seed(self, runner):
        args = [
            "simulate", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--replications", "2000", "--seed", "11",
        ]
        assert run_ok(runner, args) == run_ok(runner, args)

    def test_stream_changes_output(self, runner):
        base = [
            "simulate", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--replications", "2000", "--seed", "11",
        ]
        assert run_ok(runner, base) != run_ok(runner, base + ["--stream", "1"])

    def test_records_round_trip_and_estimate(self, runner, tmp_path):
        records = tmp_path / "games.jsonl"
        run_ok(runner, [
            "simulate", "--n", "15", "--pa", ".6", "--pb", ".5", "--sa", ".5",
            "--replications", "200", "--seed", "7", "--records-out", str(records),
        ])
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 200
        first = json.loads(lines[0])
        assert set(first) == {"first_server", "alpha", "beta", "last_scorer", "duration"}
        out = run_ok(runner, ["estimate", "--input", str(records)])
        row = parse_csv(out)[0]
        assert float(row["p_a_hat"]) == pytest.approx(0.6, abs=0.03)
        assert float(row["p_b_hat"]) == pytest.approx(0.5, abs=0.03)
        assert row["converged"] == "true"

    def test_estimate_reports_bad_record_index(self, runner, tmp_path):
        records = tmp_path / "bad.jsonl"
        records.write_text(
            '{"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A", "duration": 40}\n'
            '{"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A", "duration": 41}\n'
        )
        result = runner.invoke(main, ["estimate", "--input", str(records)])
        assert result.exit_code == 3
        assert "record 1" in result.output

    @pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()), ids=["n15", "n9-server-b"])
    def test_simulate_and_estimate_match_golden_text(self, runner, tmp_path, case):
        # stdout recorded from the per-record likelihood, records file by hash:
        # both stay byte-identical on record columns
        records = tmp_path / "games.jsonl"
        assert run_ok(runner, ["simulate", *case["simulate"], "--records-out", str(records)]) == case["simulate_stdout"]
        assert hashlib.sha256(records.read_bytes()).hexdigest() == case["records_sha256"]
        for run in case["estimate"]:
            assert run_ok(runner, ["estimate", "--input", str(records), *run["args"]]) == run["stdout"], run["args"]

    @pytest.mark.parametrize("bad", ['{"first_server": "A", "alpha": null, "beta": 3, "last_scorer": "A"}', "[1, 2]"])
    def test_estimate_malformed_record_exits_3(self, runner, tmp_path, bad):
        records = tmp_path / "bad.jsonl"
        records.write_text(bad + "\n")
        result = runner.invoke(main, ["estimate", "--input", str(records)])
        assert result.exit_code == 3
        assert "record 0" in result.output


class TestMatchAndPlan:
    def test_match_values_match_library(self, runner):
        out = run_ok(runner, [
            "match", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--games-to-win", "2",
        ])
        row = parse_csv(out)[0]
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        expect = matchlevel.match_win_prob(pr, cfg, matchlevel.MatchConfig(2))
        assert float(row["match_win_a"]) == pytest.approx(expect, rel=1e-10)

    def test_match_win_b_does_not_cancel(self, runner):
        # A is a heavy favourite: 1 - match_win_a would lose B's digits
        out = run_ok(runner, [
            "match", "--n", "21", "--pa", ".7423", "--pb", ".3564", "-m", "3",
            "--server", "B", "--server-rule", "alternate",
        ])
        row = parse_csv(out)[0]
        mc = matchlevel.MatchConfig(3, matchlevel.ServerRule.ALTERNATE)
        expect = matchlevel.match_win_prob(RallyProbs(0.7423, 0.3564), GameConfig(n=21, s_a=0.0), mc, B)
        assert row["match_win_b"] == cell(expect) == "3.24067138364e-10"

    def test_plan_single_match_median_is_match_median(self, runner):
        out = run_ok(runner, [
            "plan", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--games-to-win", "2", "--matches", "1", "--quantile-levels", "0.5",
        ])
        row = parse_csv(out)[0]
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        pmf = matchlevel.match_duration_pmf(pr, cfg, matchlevel.MatchConfig(2), epsilon=1e-12)
        assert float(row["rallies"]) == duration.quantile(pmf, 0.5)

    def test_plan_scales_with_matches(self, runner):
        def median(matches):
            out = run_ok(runner, [
                "plan", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
                "--games-to-win", "2", "--matches", str(matches),
                "--quantile-levels", "0.5",
            ])
            return float(parse_csv(out)[0]["rallies"])

        assert median(4) > 3 * median(1)


    def test_match_and_plan_with_tiebreak_against_composition(self, runner):
        game = ["--n", "4", "--pa", ".6", "--pb", ".45", "--sa", ".4", "--tiebreak", "2", "-m", "2"]
        law = compose_match_durations(0.6, 0.45, 4, 2, "winner-serves-next", 0.4, tiebreak=2)
        wins = compose_match_win_probs(0.6, 0.45, 4, 2, "winner-serves-next", 0.4, tiebreak=2)
        mean = sum(d * mass for d, mass in law.items())
        sd = math.sqrt(sum((d - mean) ** 2 * mass for d, mass in law.items()))
        row = parse_csv(run_ok(runner, ["match", *game]))[0]
        for column, want in [("match_win_a", wins[A]), ("match_win_b", wins[B]), ("e_rallies", mean), ("sd_rallies", sd)]:
            assert float(row[column]) == pytest.approx(float(cell(want)), rel=1e-11), column
        # two matches: the composed law convolved with itself
        block = np.zeros(2 * max(law) + 1)
        for (d1, m1), (d2, m2) in itertools.product(law.items(), repeat=2):
            block[d1 + d2] += m1 * m2
        cdf = np.cumsum(block)
        levels = [0.1, 0.5, 0.9, 0.99]
        rows = parse_csv(run_ok(runner, ["plan", *game, "--matches", "2", "--quantile-levels", ",".join(map(str, levels))]))
        for level, r in zip(levels, rows):
            assert float(r["rallies"]) == np.searchsorted(cdf, level)

def cell(value):
    """A float as the CSV tables print it."""
    return f"{float(value):.12g}"


class TestRallyPoint:
    """The rally-point paths of the game-level commands, row by row against
    the engine functions they call."""

    PROBS = RallyProbs(0.6, 0.45)
    ARGS = ["--system", "rallypoint", "--n", "11", "--pa", ".6", "--pb", ".45"]

    @staticmethod
    def config(server):
        return GameConfig(n=11, system=ScoringSystem.RALLY_POINT, s_a=1.0 if server == "A" else 0.0)

    @pytest.mark.parametrize("server", ["A", "B"])
    def test_score_dist(self, runner, server):
        rows = parse_csv(run_ok(runner, ["score-dist", *self.ARGS, "--server", server]))
        dist = sideout.score_distribution(self.PROBS, self.config(server), server=Player(server))
        assert len(rows) == 22
        for r in rows:
            score = TerminalScore(int(r["alpha"]), int(r["beta"]), Player(r["winner"]))
            assert r["probability"] == cell(dist.entries[score])

    @pytest.mark.parametrize("server", ["A", "B"])
    @pytest.mark.parametrize("winner", [None, "A"])
    @pytest.mark.parametrize("stat", ["moments", "pmf", "quantiles"])
    def test_duration(self, runner, stat, winner, server):
        args = ["duration", *self.ARGS, "--server", server, "--stat", stat] + (["--winner", winner] if winner else [])
        if stat == "moments" and winner:
            # the moments table has a row per winner: --winner is refused, not ignored
            assert runner.invoke(main, args).exit_code == 2
            return
        rows = parse_csv(run_ok(runner, args))
        config, sv = self.config(server), Player(server)
        if stat == "moments":
            agg = duration.aggregate_moments(self.PROBS, config)
            expected = [agg.by_server_winner[(sv, A)], agg.by_server_winner[(sv, B)], agg.by_server[sv]]
            assert [r["conditioning"] for r in rows] == ["winner=A", "winner=B", "unconditional"]
            for r, m in zip(rows, expected):
                assert [r["mean"], r["sd"], r["variance"]] == [cell(m.mean), cell(m.sd), cell(m.variance)]
            return
        if winner is None:
            pmf = duration.duration_pmf_unconditional(self.PROBS, served_by(config, sv))
        else:
            pmf = duration.duration_pmf_winner(self.PROBS, served_by(config, sv), Player(winner))
        if stat == "pmf":
            assert [int(r["rallies"]) for r in rows] == list(pmf.offset + np.arange(len(pmf.masses)))
            assert [r["probability"] for r in rows] == [cell(m) for m in pmf.masses]
            assert {r["truncation_bound"] for r in rows} == {"0"}
        else:
            for r in rows:
                assert r["rallies"] == cell(duration.quantile(pmf, float(r["level"])))

    def test_match(self, runner):
        row = parse_csv(run_ok(runner, ["match", *self.ARGS, "--server", "A", "-m", "3"]))[0]
        mc = matchlevel.MatchConfig(3)
        win_a = matchlevel.match_win_prob(self.PROBS, self.config("A"), mc)
        moments = matchlevel.match_duration_pmf(self.PROBS, self.config("A"), mc).moments()
        assert [row["match_win_a"], row["e_rallies"], row["sd_rallies"]] == [
            cell(win_a), cell(moments.mean), cell(moments.sd)
        ]
        assert row["truncation_bound"] == "0"

    def test_plan(self, runner):
        rows = parse_csv(run_ok(runner, ["plan", *self.ARGS, "--server", "A", "-m", "2", "--matches", "4"]))
        single = matchlevel.match_duration_pmf(self.PROBS, self.config("A"), matchlevel.MatchConfig(2))
        masses = single.masses
        for _ in range(3):
            masses = np.convolve(masses, single.masses)
        total = duration.DurationPMF(4 * single.offset, masses, 0.0)
        for r in rows:
            assert r["rallies"] == cell(duration.quantile(total, float(r["level"])))

    def test_degenerate_pmf_stops_at_last_nonzero_row(self, runner):
        # a certain server wins 15-0: one row, as under side-out scoring
        out = run_ok(runner, [
            "duration", "--system", "rallypoint", "--n", "15", "--pa", "1", "--pb", "0",
            "--server", "A", "--stat", "pmf",
        ])
        assert out == "rallies,probability,truncation_bound\n15,1,0\n"


class TestExitCodes:
    def test_usage_error_is_2(self, runner):
        result = runner.invoke(main, ["score-dist", "--n", "15", "--pa", ".5"])
        assert result.exit_code == 2

    def test_domain_error_is_3(self, runner):
        result = runner.invoke(main, [
            "score-dist", "--n", "15", "--pa", "1.2", "--pb", ".5", "--server", "A",
        ])
        assert result.exit_code == 3
        assert "error" in result.output

    @pytest.mark.parametrize(
        "flags",
        [["-j", "0", "--seed", "1"], ["-j", "3", "--seed", "-1"], ["-j", "3", "--seed", "1", "--stream", "-1"]],
    )
    def test_bad_simulator_inputs_are_3(self, runner, flags):
        result = runner.invoke(main, ["simulate", "--n", "5", "--pa", ".5", "--pb", ".5", *flags])
        assert result.exit_code == 3
        assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output

    def test_exchange_series_past_the_term_guard_is_3(self, runner):
        result = runner.invoke(main, [
            "duration", "--stat", "pmf", "--n", "15", "--pa", "1e-6", "--pb", "1e-6", "--server", "A",
        ])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [["duration", "--stat", "pmf"], ["match", "-m", "2"], ["plan", "-m", "2", "--matches", "2"]],
        ids=["duration", "match", "plan"],
    )
    def test_non_finite_epsilon_is_3(self, runner, command, epsilon):
        result = runner.invoke(main, [*command, "--n", "9", "--pa", ".6", "--pb", ".5", "--epsilon", epsilon])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"error: epsilon must be finite and > 0, got {epsilon}\n"

    def test_input_that_is_not_utf8_is_3(self, runner, tmp_path):
        records = tmp_path / "games.jsonl"
        records.write_bytes(b'{"first_server": "A", "alpha": 5, "beta": 3, "last_scorer": "A"}\n\xff\n')
        result = runner.invoke(main, ["estimate", "--input", str(records)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: reading stopped after 0 lines: not utf-8 text (invalid start byte)\n"

    def test_non_convergence_is_3(self, runner, tmp_path, monkeypatch):
        records = tmp_path / "games.jsonl"
        records.write_text('{"first_server": "A", "alpha": 5, "beta": 3, "last_scorer": "A", "duration": 12}\n')
        monkeypatch.setattr(estimate, "_MAX_STEPS", 0)
        result = runner.invoke(main, ["estimate", "--input", str(records), "--mode", "score"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: no convergence within 0 Newton steps\n"

    def test_score_with_winner_is_a_usage_error(self, runner):
        # a 5-2 game was won by A: the law given it once came out for --winner B
        result = runner.invoke(main, [
            "duration", "--n", "5", "--pa", ".6", "--pb", ".5", "--stat", "quantiles", "--score", "5,2", "--winner", "B",
        ])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith("\nError: --score and --winner cannot be given together: an end score fixes the winner\n")

    def test_winner_with_moments_is_a_usage_error(self, runner):
        # once ignored: the same three rows came out as without --winner
        result = runner.invoke(main, ["duration", "--n", "5", "--pa", ".6", "--pb", ".5", "--stat", "moments", "--winner", "B"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith("\nError: --winner selects the law of --stat pmf or quantiles, not of --stat moments\n")

    @pytest.mark.parametrize(
        "stat, flag",
        [
            ("moments", ["--epsilon", "1e-6"]),
            ("moments", ["--levels", "0.5"]),
            ("moments", ["--quantile-mode", "interpolated"]),
            ("pmf", ["--levels", "0.5"]),
            ("pmf", ["--quantile-mode", "standard"]),
        ],
    )
    def test_flag_the_stat_does_not_read_is_a_usage_error(self, runner, stat, flag):
        # once ignored: the table came out as without the flag, even at its default value
        result = runner.invoke(main, ["duration", "--n", "5", "--pa", ".6", "--pb", ".5", "--stat", stat, *flag])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith(f"\nError: {flag[0]} is not read by --stat {stat}\n")

    @pytest.mark.parametrize("command", ["score-dist", "estimate"])
    def test_tally_past_the_coefficient_table_is_3(self, runner, tmp_path, command):
        # once a MemoryError traceback (exit 1) from sizing a 7 TiB table
        records = tmp_path / "games.jsonl"
        records.write_text('{"alpha": 1000000, "beta": 3, "first_server": "A", "last_scorer": "A"}\n')
        args = {
            "score-dist": ["--n", "1000000", "--pa", ".6", "--pb", ".5"],
            "estimate": ["--input", str(records), "--mode", "score"],
        }[command]
        result = runner.invoke(main, [command, *args])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "error: a tally of 1000000 points is more than the 2048 the coefficient table holds\n"

    def test_io_error_is_4(self, runner):
        result = runner.invoke(main, ["estimate", "--input", "/nonexistent/path.jsonl"])
        assert result.exit_code == 4

    def test_out_into_a_missing_directory_is_4(self, runner, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        result = runner.invoke(main, ["match", "--n", "5", "--pa", ".6", "--pb", ".5", "-m", "2", "--out", str(target)])
        assert (result.exit_code, result.stdout) == (4, "")
        assert result.stderr.startswith("i/o error: ") and result.stderr.count("\n") == 1, result.stderr
        assert not target.parent.exists()

    def test_json_out_file_written(self, runner, tmp_path):
        target = tmp_path / "table.json"
        args = ["match", "--n", "5", "--pa", ".6", "--pb", ".5", "-m", "2", "--server-rule", "alternate"]
        assert run_ok(runner, [*args, "--format", "json", "--out", str(target)]) == ""
        payload = json.loads(target.read_text())
        assert payload == json.loads(run_ok(runner, [*args, "--format", "json"]))
        assert payload["columns"] == ["match_win_a", "match_win_b", "e_rallies", "sd_rallies", "truncation_bound"]
        mc = matchlevel.MatchConfig(2, matchlevel.ServerRule.ALTERNATE)
        win_a = matchlevel.match_win_prob(RallyProbs(0.6, 0.5), GameConfig(n=5), mc)
        assert payload["rows"][0][0] == float(cell(win_a))

    def test_zero_matches_is_a_usage_error_before_a_domain_error(self, runner):
        # --pa 2 is a domain error, but the count of matches is checked first
        result = runner.invoke(main, ["plan", "--n", "9", "--pa", "2", "--pb", ".5", "-m", "2", "--matches", "0"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith("\nError: --matches must be >= 1\n"), result.stderr

    def test_out_file_written(self, runner, tmp_path):
        target = tmp_path / "table.csv"
        run_ok(runner, [
            "score-dist", "--n", "3", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--out", str(target),
        ])
        assert target.read_text().startswith("alpha,beta,winner,probability")


def test_cli_reaches_engines_through_public_names_only():
    # the CLI parses flags and formats tables: every engine attribute it
    # reads is public, and numpy only builds the --p-grid list
    engines = {m.name for m in pkgutil.iter_modules(rallystats.__path__)} - {"cli", "core"}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    reads = [(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)]
    assert [(m, a) for m, a in reads if m in engines and a.startswith("_")] == []
    assert {a for m, a in reads if m == "np"} == {"arange"}
    assert {m for m, _ in reads} & engines  # the walk sees the engine calls


class TestGoldenText:
    @pytest.mark.parametrize("case", COMMANDS, ids=[case["name"] for case in COMMANDS])
    def test_commands_match_golden_text(self, runner, case):
        # stdout (and the error of a failing command) as the CLI printed it
        # when the engines were imported up front
        result = runner.invoke(main, case["args"])
        assert (result.exit_code, result.stdout) == (case["exit_code"], case["stdout"])
        assert result.stderr == case.get("stderr", "")
