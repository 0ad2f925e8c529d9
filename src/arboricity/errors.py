"""Exception types shared across the library.

``EXIT_CODES`` in ``cli.py`` is the one table that maps these onto exit
codes.  ``InternalInvariantError`` has no code: it marks a bug, and the CLI
lets it escape with its traceback.
"""


class ArboricityError(Exception):
    """Base class for all library errors."""


class GraphInputError(ArboricityError, ValueError):
    """Malformed input: unknown identities, bad values, empty where forbidden."""


class DisconnectedGraphError(ArboricityError):
    """An operation that requires a connected graph received a disconnected one."""


class EmptyCoreError(ArboricityError):
    """A game-theoretic precondition failed: the core of the game is empty."""


class ResourceLimitError(ArboricityError):
    """An enumeration cap was exceeded."""


class InternalInvariantError(ArboricityError):
    """An internal consistency check failed; indicates a bug, not bad input."""
