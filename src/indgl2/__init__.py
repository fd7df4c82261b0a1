"""Exact mod-p calculus for compactly induced representations of GL2 over a local field."""

from . import errors
from .errors import (
    CaseMismatch,
    CheckFailed,
    ConfigError,
    DegreeTooHigh,
    DimensionMismatch,
    DivisionByZero,
    IndGL2Error,
    LevelZeroInput,
    MixedFieldContexts,
    NonConvergence,
    NotDivisible,
    PrecisionExhausted,
    SingularMatrix,
)

__version__ = "0.1.0"
