"""Exception types shared across the kit.

Everything raised on bad input derives from OracleKitError so callers
(notably the CLI) can map any contract violation to a single failure
path. 64-bit overflow uses the builtin OverflowError instead: it is the
established Python spelling for that condition.
"""


class OracleKitError(Exception):
    """Base class for all kit-specific errors."""


class BoundsError(OracleKitError):
    """An index or index range is outside the valid domain."""


class UnsortedInputError(OracleKitError):
    """An operation requiring sorted input received an unsorted one."""


class DuplicateValuesError(OracleKitError):
    """An operation requiring distinct values received duplicates."""


class MalformedTreeError(OracleKitError):
    """A tree structure is cyclic, disconnected, or inconsistent."""


class OrderError(OracleKitError):
    """Triplets out of (row, column) order, or malformed file text: not ASCII,
    a bad or over-long token, a short header, a negative or wrong NNZ count."""


class ZeroEntryError(OracleKitError):
    """A sparse triplet stores an explicit zero."""


class DimensionError(OracleKitError):
    """Operand shapes do not agree."""


class ConfigError(OracleKitError):
    """A configuration value is invalid (worker counts, names, modes)."""


class ModelTooLargeError(OracleKitError):
    """State-space exploration exceeded its cap.

    From ``explore``: ``states_visited`` is the cap plus one, and
    ``terminal_outputs_seen`` counts distinct terminal outputs processed before
    it in layer order, so it is 0 unless the cap falls in the last layer.
    """

    def __init__(self, message, states_visited=0, terminal_outputs_seen=0):
        super().__init__(message)
        self.states_visited = states_visited
        self.terminal_outputs_seen = terminal_outputs_seen
