"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of an operation."""


class DegeneratePointError(DomainError):
    """Evaluation point is degenerate for the construction asked of it: path
    reduction (x <= -1/4 or x = 0), the comb family or normalize_point (x in
    {0, -1, -2})."""


class FormulaError(DomainError):
    """Malformed CNF input (bad DIMACS syntax, clause width, literal range)."""


class GraphFormatError(DomainError):
    """Malformed graph input (bad header, self-loop, duplicate edge, bad id)."""


class CapacityError(Exception):
    """A configured resource bound was exceeded; results would not be exact-or-error."""


class OracleError(Exception):
    """An evaluation oracle failed (spawn failure, protocol violation, bad value)."""
