"""Typed errors shared across the solver modules."""


class CryptomixError(Exception):
    """Base class for all package errors."""


class TooManyMethods(CryptomixError):
    """Brute-force enumeration guard tripped (more than 25 methods)."""


class TableTooLarge(CryptomixError):
    """DP table would exceed the configured cell budget."""


class BudgetNegative(CryptomixError):
    """Attacker budget is negative."""


class NotOptimal(CryptomixError):
    """An LP ended without an optimum."""


class InfeasibleDefender(NotOptimal):
    """Defender constraint set admits no mixed strategy."""


class ParseError(CryptomixError):
    """Scenario file is malformed."""


class ValidationError(CryptomixError):
    """Scenario file parsed but violates model invariants."""


class OutputPathError(CryptomixError):
    """An output option names a path that cannot be written."""
