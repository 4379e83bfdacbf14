"""Exception types shared across the package.

Input-level problems (bad tokens, impossible embeddings, degenerate
reductions) all derive from InputError so callers can distinguish them
from internal invariant failures, which derive from InternalError.
"""

from operator import index


class FoliarError(Exception):
    pass


class InputError(FoliarError):
    """The input is malformed or outside the domain of the operation."""


class InternalError(FoliarError):
    """An internal invariant failed; indicates a bug, not bad input."""


def integer(value, what):
    """value if operator.index takes it, else an InputError naming it."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{what} {value!r} is not an integer") from None


# -- diagram parsing / validation ------------------------------------------

class MalformedToken(InputError):
    pass


class ArcCountMismatch(InputError):
    pass


class EmptyDiagram(InputError):
    pass


class NonSphericalEmbedding(InputError):
    """The rotation system does not describe a connected diagram on S^2."""


# -- twist regions ----------------------------------------------------------

class NonAlternatingChain(InputError):
    """A twist region mixes crossing handedness; reduce it first."""


class UnknotCollapse(InputError):
    """Cancellation removed every crossing."""


# -- side graphs ------------------------------------------------------------

class NotBipartite(InternalError):
    """Face two-colouring failed; impossible for 4-valent plane graphs."""


class DegenerateCollapse(InputError):
    """Normalisation removed every twist region."""


class EquivalenceViolation(InternalError):
    """The two side graphs disagree on the tree/connectivity dichotomy."""


# -- trees ------------------------------------------------------------------

class MalformedTree(InputError):
    pass


class ZeroWeight(InputError):
    pass


class ConstructionMismatch(InternalError):
    """A generated diagram failed its structural validation."""


# -- braids -----------------------------------------------------------------

class BadGenerator(InputError):
    pass


class EmptyWord(InputError):
    pass


class EvenStrandCount(InputError):
    pass


# -- surgery ----------------------------------------------------------------

class ZeroK(InputError):
    """A twist region too short to carry a crossing circle coefficient."""


class Unsatisfiable(InputError):
    """No smoothing assignment meets the structural and slope constraints."""
