"""Exception types shared across the package.

Input-level problems (bad tokens, impossible embeddings, degenerate
reductions) all derive from InputError so callers can distinguish them
from internal invariant failures, which derive from InternalError.
"""

import re
from operator import index


class FoliarError(Exception):
    pass


class InputError(FoliarError):
    """The input is malformed or outside the domain of the operation."""


class InternalError(FoliarError):
    """An internal invariant failed; indicates a bug, not bad input."""


_INTEGER = re.compile(r"-?\d+").fullmatch


def read_int(text, cls):
    """The integer text spells if it is an optional - and decimal digits,
    else None; past the digit limit, cls naming its head and length."""
    try:
        return int(text) if _INTEGER(text) else None
    except ValueError:  # beyond the digit limit
        raise _overlong(cls, text) from None


def _overlong(cls, text):
    """cls naming the longest digit run of text by its head and length."""
    t = max(re.findall(r"\d+", text), key=len)
    return cls(f"integer {t[:8]}... of {len(t)} digits is too long")


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


class InputTooLarge(InputError):
    """The input would build more crossings than the budget allows."""


# -- twist regions ----------------------------------------------------------

class NonAlternatingChain(InputError):
    """A twist region mixes crossing handedness; reduce it first."""


class UnknotCollapse(InputError):
    """Cancellation removed every crossing."""


# -- side graphs ------------------------------------------------------------

class DegenerateCollapse(InputError):
    """Normalisation removed every twist region."""


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
