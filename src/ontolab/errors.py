"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument is outside its documented domain."""


class ContractMismatchError(TypeError):
    """An operation was given a model whose contract it does not take."""


class NumericalFailureError(RuntimeError):
    """A numerical routine failed to reach its certified accuracy (implementation bug)."""
