"""Typed errors shared across the solver modules."""


class CryptomixError(Exception):
    """Base class for all package errors."""


class TooManyMethods(CryptomixError):
    """Brute-force enumeration guard tripped (more than 25 methods)."""


class TableTooLarge(CryptomixError):
    """DP table would exceed the configured cell budget."""


class BudgetNegative(CryptomixError):
    """Attacker budget is negative or NaN (every solver checks
    not budget >= 0)."""


class NotOptimal(CryptomixError):
    """An LP ended without an optimum."""


class InfeasibleDefender(NotOptimal):
    """An LP's constraints admit no point, such as a defender polytope
    that holds no mixed strategy."""


class ParseError(CryptomixError):
    """Scenario file is malformed."""


class ValidationError(CryptomixError):
    """Input violates the model's invariants: a scenario file that parsed
    but fails validate_instance; an attacker that fails its rule (a finite
    value > 0, finite phi coefficients >= 0) or a method cost that is not
    >= 0, passed straight to an attacker solver; or a SolverConfig field
    out of its range."""


class OutputPathError(CryptomixError):
    """An output option names a path that cannot be written."""
