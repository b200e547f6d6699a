"""Exception types shared across the toolkit."""


class PmtkError(Exception):
    """Base class for all toolkit errors."""


class InputError(PmtkError, ValueError):
    """A precondition on caller-supplied input was violated."""


class DomainError(InputError):
    """A point lies outside a space's declared domain box."""


class OracleValueError(InputError):
    """A distance oracle returned a negative or non-finite value; names the points."""


class ConstructionError(PmtkError):
    """A derived-space construction failed; carries the offending points."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CatalogError(InputError):
    """Unknown catalog name; the message lists the valid entries."""


class GateError(InputError):
    """A solver gate condition failed, so the iteration never started."""


class UsageError(PmtkError):
    """Command line arguments could not be parsed."""
