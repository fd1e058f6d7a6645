"""Exception hierarchy shared across the package."""


class DistilrankError(Exception):
    """Base class for all package errors."""


class DataError(DistilrankError):
    """Malformed or inconsistent input data (bad line, duplicate id, broken invariant)."""


class NonFiniteError(DataError, ValueError):
    """A computation produced a non-finite value, as a diverged training run does."""


class JournalError(DataError):
    """Distillation journal is corrupt beyond a torn final line."""


class TransportError(DistilrankError):
    """LLM endpoint unreachable or still failing after all retries."""


class BudgetError(DistilrankError):
    """Estimated spend would exceed the configured budget; nothing was sent."""
