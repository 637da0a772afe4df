"""Exception types shared across the toolkit."""


class QcdistortError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QcdistortError):
    """A mesh file could not be parsed; the message carries file and line."""


class ValidationError(QcdistortError):
    """A mesh or mesh pair violates a structural invariant."""


class DegenerateFaceError(ValidationError):
    """A face has area at or below the mesh's degeneracy threshold."""

    def __init__(self, message: str, face: int | None = None):
        super().__init__(message)
        self.face = face


class NonManifoldEdgeError(QcdistortError):
    """An edge is shared by more than two faces."""


class VanishingFzError(QcdistortError):
    """The conformal part of the derivative vanishes; mu is undefined."""


class DegenerateModelError(QcdistortError):
    """A linear model w = A z + B conj(z) is not orientation-preserving."""


class DomainError(QcdistortError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class TopologyError(QcdistortError):
    """The mesh does not have the topology required by the operation."""


class SolverError(QcdistortError):
    """A linear solve did not reach the requested tolerance."""


class EmptyInputError(QcdistortError, ValueError):
    """An operation that needs data received an empty collection."""
