"""Exception types shared across the package."""


class CycloskewError(Exception):
    """Base class for every error raised by this package."""


# field construction and arithmetic
class NotPrime(CycloskewError):
    pass


class NotPrimePower(CycloskewError):
    pass


class NotPrimitivePolynomial(CycloskewError):
    pass


class NotPrimitiveElement(CycloskewError):
    pass


class FieldTooLarge(CycloskewError):
    pass


class DivisionByZero(CycloskewError):
    pass


class ZeroHasNoLog(CycloskewError):
    pass


# quadratic form representations
class NotOneMod4(CycloskewError):
    pass


class NotOneMod8(CycloskewError):
    pass


class NoRepresentation(CycloskewError):
    pass


# cyclotomy
class OrderDoesNotDivide(CycloskewError):
    pass


class IndexOutOfRange(CycloskewError):
    pass


class CalibrationAmbiguous(CycloskewError):
    pass


# difference multisets and certification
class DuplicateElement(CycloskewError):
    pass


class NotDisjoint(CycloskewError):
    pass


class ContainsZero(CycloskewError):
    pass


class InvalidElementCode(CycloskewError):
    pass


# construction recipes
class NotApplicable(CycloskewError):
    pass


class PredictionMismatch(CycloskewError):
    pass


class UnknownRecipe(CycloskewError):
    pass


# command line front end
class BoundTooLarge(CycloskewError):
    pass


class ParseError(CycloskewError):
    pass


class UnknownMode(CycloskewError):
    pass
