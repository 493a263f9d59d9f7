"""Cooperative EV charging stations: shared-battery dispatch, peer trading,
and multi-agent reinforcement learning over hourly scenarios."""

import os

# One BLAS thread unless the user set a count: the products here are small,
# and a second thread doubles CPU time without saving wall time.  This acts
# only if numpy is first imported after this line.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .core import (  # noqa: E402
    ConstraintViolation,
    EssParams,
    InfeasibleIntervalError,
    Multipliers,
    PriceOrderingError,
    PriceQuote,
    ProfitBreakdown,
    StationAction,
    StationState,
    StepOutcome,
    TradeOutcome,
    clear_trades,
    control_intervals,
    profit,
    soc,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintViolation", "EssParams", "InfeasibleIntervalError", "Multipliers",
    "PriceOrderingError", "PriceQuote", "ProfitBreakdown", "StationAction",
    "StationState", "StepOutcome", "TradeOutcome", "clear_trades",
    "control_intervals", "profit", "soc", "step",
    "__version__",
]
