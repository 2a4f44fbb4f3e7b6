"""Exception taxonomy shared by every module in the package.

Every concrete class derives from exactly one of two bases, and the base
is the command line's exit code (see :mod:`focalframe.cli`):

* :class:`InputError`, exit 2: the input is at fault (a spec file, a
  curve factory's parameters, a curvature profile, a parameter outside
  a curve's domain, or a flag value that only a run can check).
* :class:`NumericFailure`, exit 3: the input is valid, and the geometry
  (a degenerate row, a vertex, a vanishing speed) or the numerical method
  (an order a curve's method cannot deliver, an iteration that does not
  converge) stops the computation.

A new class goes under :class:`InputError` when the input breaks a rule
that can be checked before any computation (a field of a spec file, a
parameter's range, a flag's value), and under :class:`NumericFailure`
when the input keeps every such rule and the computation still stops.
"""


class FocalFrameError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FocalFrameError):
    """The input is at fault; the command line exits with code 2."""


class NumericFailure(FocalFrameError):
    """A valid input the computation cannot carry through; exit code 3."""


class SpecFileError(InputError):
    """Curve specification file is missing, malformed, or has unknown fields."""


class BadParameters(InputError):
    """Curve factory called with parameters outside its admissible range."""


class InvalidProfile(InputError):
    """A curvature profile violates positivity on its domain."""


class OutOfDomain(InputError):
    """Parameter value outside the curve domain."""


class ConvergenceFailure(NumericFailure):
    """An iterative scheme exhausted its sweep or iteration budget."""


class SingularSystem(NumericFailure):
    """Linear solve hit a pivot too small to trust."""


class RegularityFailure(NumericFailure):
    """Curve speed vanishes (or nearly vanishes) somewhere on the domain,
    or too few rows away from vertices are left to sample a focal curve."""


class ReducedOrder(NumericFailure):
    """The curve is not a Frenet curve of the requested order at ``s``.

    ``order`` is the 1-based derivative index at which independence failed.
    """

    def __init__(self, order: int, s: float = float("nan")):
        self.order = int(order)
        self.s = float(s)
        super().__init__(f"osculating order breaks down at derivative {self.order} (s={self.s!r})")


class OrderUnsupported(NumericFailure):
    """A derivative order beyond what a curve's method delivers, such as
    order 6 of a sampled curve, whether the curve is the input or a curve
    derived from it (the sampled focal curve)."""


class NotUnitSpeed(NumericFailure):
    """Operation requires an arclength parametrization; reparametrize first."""


class DivisionGuard(NumericFailure):
    """A curvature mean is too close to zero to form ratios."""
