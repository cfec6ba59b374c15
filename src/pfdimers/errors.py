"""Exception types shared across the package."""

from __future__ import annotations


class PfdimersError(Exception):
    """Base class for all library errors."""


class MalformedRotation(PfdimersError):
    """Rotation data does not describe a valid half-edge system."""


class NegativeWeight(PfdimersError):
    """Edge weights must be positive and finite."""


class DisconnectedGraph(PfdimersError):
    """The underlying graph must be connected."""


class MalformedFile(PfdimersError):
    """Graph file could not be parsed."""


class NotAClosedWalk(PfdimersError):
    """A walk argument does not chain up or does not close."""


class NotSimple(PfdimersError):
    """A walk argument revisits a vertex."""


class NotAMatching(PfdimersError):
    """An edge set is not a perfect matching."""


class OddVertexCount(PfdimersError):
    """No admissible orientation exists on an odd number of vertices."""


class TooLarge(PfdimersError):
    """Instance exceeds the configured exhaustive-search bound."""


class NotOrientableForm(PfdimersError):
    """Quadratic data does not come from an orientable surface."""


class DegenerateForm(PfdimersError):
    """Gauss sum modulus does not match a non-singular form."""


class OddDimension(PfdimersError):
    """Pfaffians require even matrix dimension."""


class NotBlockForm(PfdimersError):
    """Matrix is not in the bipartite block shape [[0, M], [-M^T, 0]]."""


class LoopEdge(PfdimersError):
    """Loops cannot enter a skew adjacency matrix."""


class CurveNotRealizable(PfdimersError):
    """No companion cycle alongside the given curve exists in the graph."""


class WrongSurfaceType(PfdimersError):
    """Operation applied to a surface of the wrong kind."""


class NonRealResult(PfdimersError):
    """A partition-function sum failed to be real; signals a convention bug."""


class OpenSurfaceWord(PfdimersError):
    """Polygon word does not describe a closed surface."""


class BadDimensions(PfdimersError):
    """Lattice dimensions outside the generator's supported range."""


class FloatOutOfRange(PfdimersError):
    """A float Pfaffian or partition function left the double range."""


class IllConditionedWarning(UserWarning):
    """Float Pfaffian met a pivot below the conditioning threshold."""
