"""Exception types shared across the package."""


class QcmapsError(ValueError):
    """Base class for domain errors raised by this package."""


class InvalidInputError(QcmapsError):
    """Non-finite, malformed, or out-of-contract input."""


class InvalidAxesError(QcmapsError):
    """Rotation plane axes coincide or are out of range."""


class DegenerateHintError(QcmapsError):
    """Frame hint is (anti)parallel to the primary direction."""


class OriginError(QcmapsError):
    """Map is undefined at (or maps through) the origin."""


class ChartSingularityError(QcmapsError):
    """Chart formula degenerates at the requested point."""


class OutsideShellError(QcmapsError):
    """Point lies outside the spherical shell the map is defined on."""


class TransformUndefinedError(QcmapsError):
    """Conjugated map sent the sample to the puncture at the origin."""


class StencilError(QcmapsError):
    """Map evaluation failed on a finite-difference stencil or sphere sample."""


class PlanningError(QcmapsError):
    """Path plan cannot be realized as stated; add or adjust waypoints."""
