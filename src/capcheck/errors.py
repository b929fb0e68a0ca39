"""Exception hierarchy shared by all capcheck modules."""


class CapcheckError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedFieldError(CapcheckError):
    """Requested an operation outside the supported field family."""


class ReduciblePolynomialError(CapcheckError):
    """Supplied modulus polynomial factors over GF(2)."""


class ZeroInverseError(CapcheckError):
    """Multiplicative inverse of 0 requested."""


class ZeroVectorError(CapcheckError):
    """The all-zero vector is not a projective point."""


class OutOfRangeError(CapcheckError):
    """Point code outside [1, q^(r+1))."""


class ZeroScalarError(CapcheckError):
    """Scalar multiple by 0 requested."""


class SamePointError(CapcheckError):
    """Two projectively equal points where distinct ones are required."""


class GeometryTooLargeError(CapcheckError):
    """Geometry past a resource bound: codes over 64 bits, or too large for the chosen algorithm."""


class CapFormatError(CapcheckError):
    """Base class for cap file parsing errors."""


class BadCoordinateError(CapFormatError):
    """Coordinate token is not an integer in [0, q-1]."""


class WrongArityError(CapFormatError):
    """Line does not carry exactly r+1 coordinates."""


class DuplicatePointError(CapFormatError):
    """Two input points normalize to the same projective point."""


class GeometryMismatchError(CapFormatError):
    """File header geometry disagrees with the requested geometry."""


class InvalidCapError(CapcheckError):
    """Input point set is not a cap."""


class InvariantError(CapcheckError):
    """An internal consistency check failed: a bug in capcheck, not bad input."""
