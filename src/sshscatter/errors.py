"""Typed error signals shared across the package.

Numerical degeneracies (band edges, diverging potentials, singular linear
systems) are surfaced as distinct exception types, so that callers can
tell each one apart instead of receiving NaN/inf.
"""


class ModelError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ModelError):
    """A parameter violates its declared range or consistency rule."""


class UnsupportedFeatureError(ModelError):
    """The parameter combination is valid physics but outside this version."""


class OutOfBandError(ModelError):
    """Requested energy lies outside the propagating bands.

    ``code`` is ``"gap"`` for energies inside the band gap and
    ``"beyond_edge"`` for energies past the outer band edge.
    """

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class BandEdgeError(ModelError):
    """Energy sits exactly on a band edge where sin(k) = 0, or the chain is
    flat-band (delta = +-1) and every energy is an edge."""


class UndefinedWindingError(ModelError):
    """Winding number requested for a gapless chain (delta = 0)."""


class DegenerateEigenvectorError(ModelError):
    """Bloch eigenvectors requested at a gap-closing point (omega_k = 0)."""


class PotentialSingularityError(ModelError):
    """The emitter's effective potential diverges at this detuning.

    ``pole`` carries the detuning of the nearest pole so callers can either
    skip the sample or substitute the analytic limit.
    """

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class DegenerateDenominatorError(ModelError):
    """A transfer-matrix factor has a vanishing denominator (t1 - V2 = 0)."""


class PlacementError(ModelError):
    """Emitter coupling cell lies outside, or too close to, the chain ends."""


class ChainTooShortError(ModelError):
    """A wavepacket reached a chain end before clearing the emitter."""


class IntegrationAccuracyError(ModelError):
    """Time evolution failed its norm-conservation or convergence contract."""


class EmptyGridError(ModelError):
    """Every requested sweep point fell outside the propagating band."""
