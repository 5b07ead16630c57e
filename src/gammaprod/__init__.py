"""Gamma product identities over unit-group cosets.

For odd n > 1 the units mod 2n split into cosets of the subgroup generated
by n+2, and each coset A satisfies the exact closed form

    prod over x in A of Gamma(x / 2n)  =  2**b(A) * pi**(nu(n) / 2).

This package constructs the decompositions, builds and renders the
identities, and verifies them numerically in the log domain.
"""

# Each module's __all__ is its public API; the package re-exports them all.
from . import errors, identities, render, residues, survey, verification
from .errors import *  # noqa: F403
from .residues import *  # noqa: F403
from .identities import *  # noqa: F403
from .verification import *  # noqa: F403
from .survey import *  # noqa: F403
from .render import *  # noqa: F403
from .cli import run_cli

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *residues.__all__,
    *identities.__all__,
    *verification.__all__,
    *survey.__all__,
    *render.__all__,
    "run_cli",
    "__version__",
]
