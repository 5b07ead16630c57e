"""Exception types shared across the package."""

__all__ = ["GammaprodError", "InvalidModulusError", "NotAUnitError", "DomainError",
           "InvalidCosetError"]


class GammaprodError(ValueError):
    """Base class for every domain validation error raised here."""


class InvalidModulusError(GammaprodError):
    """Modulus outside the supported domain (even, too small, ...)."""


class NotAUnitError(GammaprodError):
    """Element is not invertible modulo the given modulus."""


class DomainError(GammaprodError):
    """Argument outside an operation's domain."""


class InvalidCosetError(GammaprodError):
    """Element list is not a single coset of the generator's subgroup."""
