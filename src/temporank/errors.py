"""Exception hierarchy shared by all temporank modules."""

from contextlib import contextmanager


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


class _LineError(TemporankError):
    """An error at a line of a file; ``line_number`` is 1-based, or None where unknown."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EventParseError(_LineError):
    """A line of an edge-event stream could not be parsed."""


class NetworkFormatError(_LineError):
    """A network description file violates the documented grammar."""


class ConsistencyError(TemporankError):
    """Event replay produced an impossible state (e.g. negative edge count)."""


class UndefinedTauError(TemporankError):
    """Kendall tau is undefined because one input is entirely tied."""


class InternalError(TemporankError):
    """A guaranteed mathematical property failed; indicates a solver bug."""


def read_bytes(path, what: str) -> bytes:
    """The file at ``path``, read once; a missing file is a FileNotFoundError naming ``what``."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None


def decode(raw: bytes, error: type) -> str:
    """``raw`` as UTF-8 text, or ``error`` naming the line (ended by \\n), column and bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        column = err.start - raw.rfind(b"\n", 0, err.start)
        raise error(f"not UTF-8 text: byte 0x{raw[err.start]:02x} at column {column}",
                    line_number=raw.count(b"\n", 0, err.start) + 1) from None


@contextmanager
def _calling(what: str, where):
    """Run the user's callable ``what``: an exception it raises, other than a TemporankError,
    ends as an InvalidInputError naming it and ``where()``, the instant, chained to it."""
    try:
        yield
    except TemporankError:
        raise
    except Exception as exc:
        raise InvalidInputError(f"{what} raised {exc!r} at {where()}") from exc
