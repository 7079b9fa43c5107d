"""Exception types raised by the coneq library.

Every library-specific failure derives from QuadricError so callers can
catch one base class.  Plain ValueError/TypeError remain for garden-variety
argument abuse (wrong container shapes, non-numeric input).
"""


class QuadricError(Exception):
    """Base class for all coneq errors.

    A failed certificate sets residual, the deviation it measured, and
    threshold, the bound that deviation exceeded; both are None on errors
    that measure nothing.  The message is unchanged by them.
    """

    def __init__(self, *args, residual: float | None = None,
                 threshold: float | None = None):
        super().__init__(*args)
        self.residual = residual
        self.threshold = threshold


def certify(residual: float, threshold: float, error: type[QuadricError],
            message: str, **fields) -> None:
    """The one certificate rule: raise error unless residual <= threshold (a nan
    fails), its message formatted with residual, threshold and fields."""
    if not residual <= threshold:
        raise error(message.format(residual=residual, threshold=threshold, **fields),
                    residual=residual, threshold=threshold)


class SignatureMismatchError(QuadricError):
    """Operands live in spaces with different signatures."""


class DegenerateInputError(QuadricError):
    """Input vector is zero, or a required norm collapses below tolerance."""


class NotIsotropicError(QuadricError):
    """A vector presented as a cone point fails the isotropy certificate."""


class NotIsometryError(QuadricError):
    """A matrix or basis fails the pseudo-unitarity certificate."""


class DegenerateSubspaceError(QuadricError):
    """A subspace on which the form is (numerically) degenerate, where a
    nondegenerate one is required."""


class NondegeneracyError(QuadricError):
    """A bilinear form that must be invertible is singular at tolerance."""


class UnsupportedSignatureError(QuadricError):
    """Operation is defined only for particular signatures (p, q)."""


class UnsupportedFrameError(QuadricError):
    """Requested frame is not available in this dimension."""


class UnsupportedChartError(QuadricError):
    """Chart data do not satisfy the exact chart identities."""


class TangencyError(QuadricError):
    """A vector that must be tangent to the cone at x is not."""


class NotInAperpError(QuadricError):
    """A point that must lie in the orthogonal boundary stratum does not."""


class InternalContractError(QuadricError):
    """An identity that is guaranteed by construction failed numerically.

    Seeing this error means a bug in the library, not in caller input.
    """
