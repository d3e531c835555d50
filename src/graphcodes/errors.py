"""Shared exception types."""


class GuardExceededError(RuntimeError):
    """An exhaustive search would exceed its configured size guard."""


class InfeasibleError(ValueError):
    """The requested construction is impossible for this graph/field."""


class NoMatchingError(InfeasibleError):
    """No matching covers every message vertex.

    ``witness`` is a set of message-row indices whose joint neighborhood is
    smaller than the set itself.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistentCodeError(ValueError):
    """A code file whose generator G differs from T . G_RS.

    ``spec`` is the file as loaded, so that an audit can still report on it.
    """

    def __init__(self, message, spec):
        super().__init__(message)
        self.spec = spec


class DecodingError(ValueError):
    """Received word could not be decoded within the guaranteed radius."""
