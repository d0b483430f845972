"""Exception hierarchy for the cbv package.

Every error raised by the library derives from CbvError so callers (and the
CLI) can map failures onto diagnostics without catching bare exceptions.
"""


class CbvError(Exception):
    """Base class for all cbv errors."""


class MembershipError(CbvError):
    """A node id is not part of the network it is used against."""


class DomainError(CbvError):
    """A parameter is outside its admissible domain."""


class DimensionError(CbvError):
    """Vectors/matrices do not have mutually consistent shapes."""


class RegimeError(CbvError):
    """Inputs required by the declared informational regime are missing."""


class StabilityError(CbvError):
    """The internal block fails the spectral stability gate."""


class ConvergenceError(CbvError):
    """An iterative solver ran out of iterations.

    Carries the last iterate and residual so callers can inspect how far the
    run got.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class ProtocolError(CbvError):
    """Cross-period inputs are not comparable (regime or clearing mix)."""


class SignError(CbvError):
    """An index denominator is nonpositive and no fallback was engaged.

    Diagnostics holds the offending values keyed by name.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class PackageError(CbvError):
    """A disclosure package is incomplete or malformed."""


class IntegrityError(PackageError):
    """A data file does not match its manifest hash."""

    def __init__(self, message, filename=None):
        super().__init__(message)
        self.filename = filename


class EmissionError(CbvError):
    """A disclosure document cannot be emitted.

    Missing required fields are listed in `fields`.
    """

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


def _id_list(ids) -> str:
    """`ids` as a refusal names them: all of them when there are five or
    fewer, else the first five and how many there are."""
    ids = list(ids)
    if len(ids) <= 5:
        return repr(ids)
    return f"{repr(ids[:5])[:-1]}, ...] ({len(ids)} ids)"
