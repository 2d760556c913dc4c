"""Exact probabilistic engine for two-person serve-based games.

Score distributions, game/match-winning probabilities, the full
distribution of game length in rallies, limiting laws, a reproducible
Monte Carlo oracle and maximum-likelihood estimation of rally-winning
probabilities, for both the side-out and rally-point scoring systems.
"""

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
    TerminalScore,
    validate,
)
from .duration import DurationPMF, Moments, QuantileMode, quantile
from .estimate import FitMode, FitModel, FitResult, GameRecord, RallyWinProbMLE, RecordBatch, fit
from .matchlevel import MatchConfig, ServerRule, match_duration_pmf, match_win_prob
from .simulate import EstimatorReport, SeedSpec, SimResult, run_experiment, simulate_game

__all__ = [
    "ConditioningError",
    "ConfigError",
    "DomainError",
    "DurationPMF",
    "EstimatorReport",
    "FitMode",
    "FitModel",
    "FitResult",
    "GameConfig",
    "GameRecord",
    "InfeasibleData",
    "MatchConfig",
    "Moments",
    "NonConvergence",
    "Player",
    "QuantileMode",
    "RallyProbs",
    "RallyWinProbMLE",
    "RecordBatch",
    "ScoringSystem",
    "SeedSpec",
    "ServerRule",
    "SimResult",
    "TerminalScore",
    "fit",
    "match_duration_pmf",
    "match_win_prob",
    "quantile",
    "run_experiment",
    "simulate_game",
    "validate",
]

__version__ = "0.1.0"
