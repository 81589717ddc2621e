"""Exception taxonomy. Every error carries a CLI exit code by family."""


class UdfieldError(Exception):
    """Base class; exit_code groups errors into CLI exit families."""

    exit_code = 1


class InputError(UdfieldError):
    """Bad user input (malformed CSV, bad flag values)."""

    exit_code = 3


class ParseError(InputError):
    pass


class InvalidArgument(InputError, ValueError):
    """A value outside its parameter's domain; also a ValueError for
    library callers."""


class PreconditionError(UdfieldError):
    """An operation's documented precondition was violated."""

    exit_code = 4


class NonMonic(PreconditionError):
    pass


class NonSquarefree(PreconditionError):
    pass


class NotSquarefree(PreconditionError):
    pass


class NotOddPrime(PreconditionError):
    pass


class NotPrime(PreconditionError):
    pass


class DependentGenerators(PreconditionError):
    pass


class BoxTooSmall(PreconditionError):
    pass


class TooLargeEps(PreconditionError):
    pass


class RamifiedPrime(PreconditionError):
    pass


class ZeroIdeal(PreconditionError):
    pass


class DivisionByZero(UdfieldError, ZeroDivisionError):
    exit_code = 4


class NotAField(UdfieldError):
    """A zero divisor was hit: the defining polynomial is reducible."""

    exit_code = 4


class PrecisionExhausted(UdfieldError):
    """Refinement hit the configured bit cap before a decision was reached."""

    exit_code = 5


class ConditionFailed(UdfieldError):
    """A certified inequality required by a construction does not hold."""

    exit_code = 6


class SplitConditionFailed(ConditionFailed):
    pass


class SearchExhausted(UdfieldError):
    exit_code = 7


class IndexDivisor(UdfieldError):
    """Prime divides [O_K : Z[theta]]; mod-p splitting would be wrong."""

    exit_code = 7


class ConjugateCollision(UdfieldError):
    exit_code = 7


class InjectivityFailure(UdfieldError):
    exit_code = 7


class WindowTooLarge(UdfieldError):
    """A search or window passes its cap: an enumeration's work (prefixes
    tried plus points found), or a count of candidates or points."""

    exit_code = 7


class BoundViolation(UdfieldError):
    """An asserted bound failed during a run (should indicate a bug)."""

    exit_code = 8
