"""Exception types shared across the package."""

__all__ = ["UsageError", "NumericalError"]


class UsageError(ValueError):
    """A caller-supplied parameter is outside its documented domain."""


class NumericalError(RuntimeError):
    """A numerical procedure failed in a way no parameter tweak can hide.

    Raised, for example, when a spectral embedding turns out not to be
    positive semi-definite.
    """
