"""Exact probabilistic engine for two-person serve-based games.

Score distributions, game/match-winning probabilities, the full
distribution of game length in rallies, limiting laws, a reproducible
Monte Carlo oracle and maximum-likelihood estimation of rally-winning
probabilities, for both the side-out and rally-point scoring systems.

Importing the package loads only `core` (domain types, errors and
`ServerRule`, the match's first-server rule).  The other exported names
load their engine module on first access (`rallystats.fit` imports
`rallystats.estimate`, and numpy with it); `from rallystats import
duration` imports that submodule as usual.
"""

import importlib

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
    TerminalScore,
    validate,
)

# exported name -> engine module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(["DurationPMF", "Moments", "QuantileMode", "quantile"], "duration"),
    **dict.fromkeys(["FitMode", "FitModel", "FitResult", "RecordBatch", "fit"], "estimate"),
    **dict.fromkeys(["MatchConfig", "match_duration_pmf", "match_win_prob"], "matchlevel"),
    **dict.fromkeys(["EstimatorReport", "SeedSpec", "run_experiment"], "simulate"),
}

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
    "InfeasibleData",
    "MatchConfig",
    "Moments",
    "NonConvergence",
    "Player",
    "QuantileMode",
    "RallyProbs",
    "RecordBatch",
    "ScoringSystem",
    "SeedSpec",
    "ServerRule",
    "TerminalScore",
    "fit",
    "match_duration_pmf",
    "match_win_prob",
    "quantile",
    "run_experiment",
    "validate",
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
