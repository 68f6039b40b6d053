"""Exception types raised by the library."""


class HodgelapError(Exception):
    """Base class for all library errors."""


class MalformedFacetError(HodgelapError):
    """A facet list contains duplicates or invalid vertex ids."""


class IncidenceError(HodgelapError):
    """A face/coface pair is not incident."""


class UnknownFaceError(HodgelapError):
    """A face was referenced that is not part of the complex."""


class DimensionError(HodgelapError):
    """An index or face dimension is out of the valid range."""


class WeightError(HodgelapError):
    """A weight map is incomplete or not strictly positive."""


class InvalidMotifError(HodgelapError):
    """A vertex set does not define a valid motif."""


class FamilyParameterError(HodgelapError):
    """Parameters of a generated family are out of range."""


class ResourceError(HodgelapError):
    """An exact search exceeded its configured budget."""


class NumericError(HodgelapError):
    """The eigensolver failed to converge or produced invalid output."""


class WorkerError(HodgelapError):
    """A forked worker of the corpus walk ended without sending its reports."""


class DocumentError(HodgelapError):
    """A complex document could not be parsed.

    ``line`` and ``column`` locate the problem when it came from the JSON
    layer; they are ``None`` for semantic errors.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
