"""dynsamp-lab: numerical experiments on frame properties of operator orbits."""

__version__ = "0.1.0"

from . import dynsamp, frames, numkit  # noqa: E402,F401
from .errors import (  # noqa: F401
    DivergentSeries,
    DynsampLabError,
    HypothesisViolated,
    InvalidHypothesis,
    InvalidInput,
    NoConvergence,
    NotAFrame,
    NotPositiveSemidefinite,
)
