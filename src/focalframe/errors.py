"""Exception taxonomy shared by every module in the package."""


class FocalFrameError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateFlag(FocalFrameError):
    """Orthogonalization produced a vector below the rank tolerance.

    ``index`` is 1-based: the first input vector is 1.
    """

    def __init__(self, index: int, norm: float = float("nan"), tolerance: float = float("nan")):
        self.index = int(index)
        self.norm = float(norm)
        self.tolerance = float(tolerance)
        super().__init__(
            f"vector {self.index} has norm {self.norm:.3e}, "
            f"below rank tolerance {self.tolerance:.3e}"
        )


class ConvergenceFailure(FocalFrameError):
    """An iterative scheme exhausted its sweep or iteration budget."""


class SingularSystem(FocalFrameError):
    """Linear solve hit a pivot too small to trust."""


class OutOfDomain(FocalFrameError):
    """Parameter value outside the curve domain."""


class OrderUnsupported(FocalFrameError):
    """Requested derivative order exceeds what the curve's oracle provides."""


class MethodLimit(FocalFrameError):
    """A valid input asks for more than the numerical method delivers.

    Raised, for one, before a frame of a derived curve (the sampled focal
    curve) is read when that frame needs a derivative order beyond the
    curve's own; the input curve's own :class:`OrderUnsupported` stays an
    input error.
    """


class BadParameters(FocalFrameError):
    """Curve factory called with parameters outside its admissible range."""


class InvalidProfile(FocalFrameError):
    """A curvature profile violates positivity on its domain."""


class RegularityFailure(FocalFrameError):
    """Curve speed vanishes (or nearly vanishes) somewhere on the domain."""


class ReducedOrder(FocalFrameError):
    """The curve is not a Frenet curve of the requested order at ``s``.

    ``order`` is the 1-based derivative index at which independence failed.
    """

    def __init__(self, order: int, s: float = float("nan")):
        self.order = int(order)
        self.s = float(s)
        super().__init__(f"osculating order breaks down at derivative {self.order} (s={self.s!r})")


class NotGeneric(FocalFrameError):
    """Focal analysis needs full osculating order on the whole grid."""


class NotUnitSpeed(FocalFrameError):
    """Operation requires an arclength parametrization; reparametrize first."""


class DivisionGuard(FocalFrameError):
    """A curvature mean is too close to zero to form ratios."""


class FocalNotRegular(FocalFrameError):
    """Vertices prevent building a regular focal curve on the grid."""


class SpecFileError(FocalFrameError):
    """Curve specification file is missing, malformed, or has unknown fields."""
