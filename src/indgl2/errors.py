"""Exception types shared across the package."""


class IndGL2Error(Exception):
    """Base class for all package errors."""


class DivisionByZero(IndGL2Error):
    pass


class MixedFieldContexts(IndGL2Error):
    pass


class DegreeTooHigh(IndGL2Error):
    pass


class NotDivisible(IndGL2Error):
    pass


class PrecisionExhausted(IndGL2Error):
    pass


class NonConvergence(IndGL2Error):
    pass


class SingularMatrix(IndGL2Error):
    pass


class DimensionMismatch(IndGL2Error):
    pass


class LevelZeroInput(IndGL2Error):
    pass


class CaseMismatch(IndGL2Error):
    pass


class CheckFailed(IndGL2Error):
    pass


class ConfigError(IndGL2Error):
    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)
