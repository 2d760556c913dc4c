"""Likelihood evaluation and maximum-likelihood estimation of (p_a, p_b)
from observed side-out games.

Two likelihoods are offered: score-only (the final tally of each game) and
score-plus-duration (tally times the conditional probability of the
observed rally count).  The joint score/duration probability collapses to
p_a^alpha p_b^beta q_a^delta q^m H(m) with a parameter-free combinatorial
count H(m), so with durations the log-likelihood is

    k_pa log p_a + k_qa log q_a + k_pb log p_b + k_qb log q_b + const

and its maximizer is a ratio of counts: rallies won on serve over rallies
served, for each player (one pooled ratio in the no-server model).  The
score-only likelihood keeps the q-polynomial of each tally and is
maximized numerically: bounded L-BFGS-B from a small multistart grid,
which is deterministic given the data.  Both take their interruption
coefficients from `rallystats.kernel`.

Duration information enters the conditional duration law only through q,
so in the two-parameter server model the duration term mostly sharpens q;
identification of the pair still rests on the score component.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import kernel
from .core import (
    DomainError,
    InfeasibleData,
    NonConvergence,
    Player,
    RallyProbs,
    TerminalScore,
)
from .sideout import game_win_prob

_BOUND_DELTA = 1e-9
_PARAM_TOL = 1e-7
_EVAL_BUDGET = 10_000
_STARTS_1D = (0.25, 0.5, 0.75)


class FitMode(enum.Enum):
    SCORE_ONLY = "score"
    SCORE_DURATION = "score-duration"


class FitModel(enum.Enum):
    SERVER = "server"
    NO_SERVER = "no-server"


def _count(d: dict, key: str) -> int:
    value = d[key]
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{key}={value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class GameRecord:
    """One observed game: who served first, the final tally, and
    optionally how many rallies it took."""

    first_server: Player
    score: TerminalScore
    duration: int | None = None

    def to_dict(self) -> dict:
        out = {
            "first_server": self.first_server.value,
            "alpha": self.score.alpha,
            "beta": self.score.beta,
            "last_scorer": self.score.last_scorer.value,
        }
        if self.duration is not None:
            out["duration"] = self.duration
        return out

    @staticmethod
    def from_dict(d: dict) -> "GameRecord":
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        return GameRecord(
            first_server=Player(d["first_server"]),
            score=TerminalScore(_count(d, "alpha"), _count(d, "beta"), Player(d["last_scorer"])),
            duration=_count(d, "duration") if d.get("duration") is not None else None,
        )


def records_to_json_lines(records) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)


def records_from_json_lines(lines) -> list[GameRecord]:
    out = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(GameRecord.from_dict(json.loads(line)))
        except (KeyError, ValueError) as exc:
            raise InfeasibleData(f"record {i}: cannot parse ({exc})") from exc
    return out


def records_from_sample(sample) -> list[GameRecord]:
    """Convert a simulate.GameSample batch into GameRecords."""
    out = []
    for server_a, alpha, beta, winner_a, dur in zip(
        sample.first_server_a, sample.alpha, sample.beta, sample.winner_a, sample.duration
    ):
        winner = Player.A if winner_a else Player.B
        out.append(
            GameRecord(
                first_server=Player.A if server_a else Player.B,
                score=TerminalScore(int(alpha), int(beta), winner),
                duration=int(dur),
            )
        )
    return out


def _log_h(rows: kernel.Rows, m: int) -> float:
    """log H(m): the number-weight of trajectories with m extra rally pairs
    beyond the scored points, a convolution over the l exchanges of
    C(a+b+l-1, l) with the kernel coefficient of q^(m-l).  The exchange
    count is summed as log C(a+b-1+l, a+b-1) = sum_i log1p(l/i), i < a+b,
    which stays accurate to a few ulps for any l (a difference of lgamma
    values loses ulps of lgamma(l), 5e-10 relative at l = 1e5)."""
    j0 = int(rows.j0[0])
    j = np.arange(j0, min(int(rows.top[0]), m) + 1)
    if j.size == 0:
        return -math.inf
    points = int(rows.alpha[0] + rows.beta[0])
    log_exchanges = np.log1p((m - j)[:, None] / np.arange(1, points)).sum(axis=1)
    return float(np.logaddexp.reduce(log_exchanges + rows.logc[0, j - j0]))


class _Likelihood:
    """Log-likelihood of a record batch, reduced to exponent totals (and,
    score-only, one q-polynomial per record)."""

    def __init__(self, records, mode: FitMode):
        if not records:
            raise InfeasibleData("no records")
        self.mode = mode
        # exponents of log p_a, log q_a, log p_b, log q_b
        self.k = [0, 0, 0, 0]
        self.log_h_total = 0.0
        self.points_total = 0
        polys = []
        for i, rec in enumerate(records):
            swap = rec.first_server is Player.B
            a, b = (rec.score.beta, rec.score.alpha) if swap else (rec.score.alpha, rec.score.beta)
            server_last = rec.score.last_scorer is rec.first_server
            win_pts, lose_pts = (a, b) if server_last else (b, a)
            if win_pts <= lose_pts:
                raise InfeasibleData(
                    f"record {i}: last scorer of a completed game must hold the higher tally "
                    f"({rec.score.alpha}, {rec.score.beta})"
                )
            delta = 0 if server_last else 1  # the receiving side scored last
            server, receiver = (2, 0) if swap else (0, 2)
            self.k[server] += a
            self.k[receiver] += b
            self.k[server + 1] += delta
            rows = kernel.tally(a, b, server_last)
            if mode is FitMode.SCORE_DURATION:
                if rec.duration is None:
                    raise InfeasibleData(f"record {i}: duration required for score-and-duration fit")
                span = rec.duration - a - b - delta
                if span < 0 or span % 2 != 0:
                    raise InfeasibleData(
                        f"record {i}: duration {rec.duration} infeasible for tally "
                        f"({rec.score.alpha}, {rec.score.beta}) with first server "
                        f"{rec.first_server.value} (wrong parity or too short)"
                    )
                m = span // 2
                log_h = _log_h(rows, m)
                if log_h == -math.inf:
                    raise InfeasibleData(f"record {i}: duration {rec.duration} carries zero probability")
                self.k[1] += m
                self.k[3] += m
                self.log_h_total += log_h
            else:
                self.points_total += a + b
                poly = np.zeros(int(rows.top[0]) + 1)
                poly[int(rows.j0[0]) :] = np.exp(rows.logc[0])
                polys.append(poly)
        if polys:
            self.poly = np.zeros((len(polys), max(len(p) for p in polys)))
            for i, p in enumerate(polys):
                self.poly[i, : len(p)] = p

    def __call__(self, p_a: float, p_b: float) -> float:
        if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
            return -np.inf
        q_a, q_b = 1.0 - p_a, 1.0 - p_b
        k_pa, k_qa, k_pb, k_qb = self.k
        out = k_pa * math.log(p_a) + k_qa * math.log(q_a) + k_pb * math.log(p_b) + k_qb * math.log(q_b)
        if self.mode is FitMode.SCORE_DURATION:
            return out + self.log_h_total
        # 1 - q = p_a + q_a p_b does not cancel as q -> 1
        out -= self.points_total * math.log(p_a + q_a * p_b)
        qpow = (q_a * q_b) ** np.arange(self.poly.shape[1])
        sums = self.poly @ qpow
        if np.any(sums <= 0.0):
            return -np.inf
        return out + float(np.log(sums).sum())


def loglik_score(records, p_a: float, p_b: float) -> float:
    """Log-likelihood of the final tallies alone."""
    return _Likelihood(records, FitMode.SCORE_ONLY)(p_a, p_b)


def loglik_score_duration(records, p_a: float, p_b: float) -> float:
    """Joint log-likelihood of tallies and observed rally counts."""
    return _Likelihood(records, FitMode.SCORE_DURATION)(p_a, p_b)


@dataclass(frozen=True)
class FitResult:
    p_a: float
    p_b: float
    log_likelihood: float
    converged: bool
    boundary: bool
    mode: FitMode
    model: FitModel

    @property
    def p(self) -> float:
        """No-server parameter (meaningful when model is NO_SERVER)."""
        return self.p_a


def _ratio(won: int, lost: int) -> float:
    """won / (won + lost); 0.5 when the player never served a rally, since
    the likelihood is then flat in that coordinate."""
    return won / (won + lost) if won + lost > 0 else 0.5


def _multistart(lik: _Likelihood, model: FitModel, lo: float, hi: float) -> tuple[np.ndarray, bool]:
    """Score-only maximizer: bounded L-BFGS-B from each point of a small
    grid of starts, keeping the best."""
    if model is FitModel.SERVER:
        starts = [np.array([x, y]) for x in _STARTS_1D for y in _STARTS_1D]
        bounds = [(lo, hi), (lo, hi)]

        def nll(x):
            return -lik(x[0], x[1])

    else:
        starts = [np.array([x]) for x in _STARTS_1D]
        bounds = [(lo, hi)]

        def nll(x):
            return -lik(x[0], 1.0 - x[0])

    budget = _EVAL_BUDGET // len(starts)
    best = None
    best_converged = False
    any_converged = False
    for x0 in starts:
        res = minimize(
            nll,
            x0,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxfun": budget, "ftol": 1e-13, "gtol": 1e-9},
        )
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
            best_converged = bool(res.success)
    if not any_converged:
        raise NonConvergence(f"no start converged within {_EVAL_BUDGET} evaluations")
    return best.x, best_converged


def fit(records, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER) -> FitResult:
    """Maximize the selected log-likelihood over [delta, 1-delta]^2 (or the
    no-server diagonal p_a = 1 - p_b).  Score and duration: the ratio of
    counts, clamped to that box.  Score only: multistarted L-BFGS-B.
    Deterministic given the data."""
    lik = _Likelihood(records, mode)
    lo, hi = _BOUND_DELTA, 1.0 - _BOUND_DELTA
    if mode is FitMode.SCORE_DURATION:
        k_pa, k_qa, k_pb, k_qb = lik.k
        if model is FitModel.SERVER:
            x = [_ratio(k_pa, k_qa), _ratio(k_pb, k_qb)]
        else:
            x = [_ratio(k_pa + k_qb, k_qa + k_pb)]
        x, converged = np.clip(x, lo, hi), True
    else:
        x, converged = _multistart(lik, model, lo, hi)
    p_a = float(x[0])
    p_b = float(x[1]) if model is FitModel.SERVER else 1.0 - p_a
    boundary = any(min(v - lo, hi - v) <= _PARAM_TOL for v in x)
    return FitResult(
        p_a=p_a,
        p_b=p_b,
        log_likelihood=lik(p_a, p_b),
        converged=converged,
        boundary=boundary,
        mode=mode,
        model=model,
    )


class RallyWinProbMLE:
    """Estimator with the familiar fit/get_params surface.

    Parameters are the fit mode and model; after `fit(records)` the
    estimates are available as `p_a_`, `p_b_` and `result_`.
    """

    def __init__(self, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER):
        self.mode = mode
        self.model = model

    def get_params(self, deep: bool = True) -> dict:
        return {"mode": self.mode, "model": self.model}

    def set_params(self, **params) -> "RallyWinProbMLE":
        for key, value in params.items():
            if key not in ("mode", "model"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, records, y=None) -> "RallyWinProbMLE":
        result = fit(records, self.mode, self.model)
        self.result_ = result
        self.p_a_ = result.p_a
        self.p_b_ = result.p_b
        self.log_likelihood_ = result.log_likelihood
        return self

    def predict_win_prob(self, config, server: Player = Player.A, winner: Player = Player.A) -> float:
        """Game-winning probability at the fitted parameters, under
        `config.system`."""
        if not hasattr(self, "result_"):
            raise DomainError("estimator is not fitted")
        return game_win_prob(winner, server, RallyProbs(self.p_a_, self.p_b_), config)
