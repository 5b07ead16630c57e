"""Exception types shared across the package: each is a GammaprodError, so a
ValueError, and NotAUnitError is the DomainError of a non-unit."""

__all__ = ["GammaprodError", "InvalidModulusError", "NotAUnitError", "DomainError",
           "InvalidCosetError"]


class GammaprodError(ValueError):
    """Base class for every domain validation error raised here."""


class InvalidModulusError(GammaprodError):
    """Modulus outside the supported domain (even, too small, ...)."""


class DomainError(GammaprodError):
    """Argument outside an operation's domain."""


class NotAUnitError(DomainError):
    """Element is no unit representative in (0, m); a DomainError like any other."""


class InvalidCosetError(GammaprodError):
    """Element list is not a single coset of the generator's subgroup."""
