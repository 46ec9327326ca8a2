"""Exception hierarchy shared by all temporank modules."""


class TemporankError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(TemporankError):
    """An argument violates a documented precondition (shape, range, finiteness)."""


class ScheduleRangeError(TemporankError):
    """A damping or personalization schedule produced an out-of-range value."""


class IntegrationError(TemporankError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


class ConvergenceError(TemporankError):
    """An iterative solver exceeded its iteration budget.

    Carries the last observed residual in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class EventParseError(TemporankError):
    """A line of an edge-event stream could not be parsed.

    ``line_number`` is 1-based.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NetworkFormatError(TemporankError):
    """A network description file violates the documented grammar.

    ``line_number`` is 1-based.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConsistencyError(TemporankError):
    """Event replay produced an impossible state (e.g. negative edge count)."""


class UndefinedTauError(TemporankError):
    """Kendall tau is undefined because one input is entirely tied."""


class InternalError(TemporankError):
    """A guaranteed mathematical property failed; indicates a solver bug."""


def not_utf8(path, error: type) -> TemporankError:
    """``error`` naming the first line of ``path`` that is not valid UTF-8.

    For a file whose text decoding failed: the message gives the line, the
    column and the first bad byte.
    """
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as err:
                return error(f"not UTF-8 text: byte 0x{raw[err.start]:02x} "
                             f"at column {err.start + 1}", line_number=number)
    return error("not UTF-8 text")
