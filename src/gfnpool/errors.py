"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, NumericError -> 3,
EnumerationGuardError -> 4, anything else -> 1.
"""


class GfnError(Exception):
    """Base class for all package errors."""


class ConfigError(GfnError):
    """Invalid run configuration; carries the offending dotted key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class MalformedStateError(GfnError):
    """A StateKey does not decode to a reachable state of the environment."""


class NoParentsError(GfnError):
    """parents() was asked for the initial state."""


class NotTerminalError(GfnError):
    """A reward was requested for a non-terminal state."""


class UnsupportedFeaturizationError(GfnError):
    """The environment has no feature encoding (tabular backend only)."""


class UnsupportedLossError(GfnError):
    """The loss requires a structural property the environment lacks."""


class EnumerationGuardError(GfnError):
    """State or trajectory enumeration would exceed the configured guard."""


class NumericError(GfnError):
    """A non-finite quantity reached a place that requires finite values."""


class RewardSupportError(GfnError):
    """A zero-probability reward appeared where positive support is required."""


class ShardError(GfnError):
    """Data cannot be split across the requested number of clients."""


class SnapshotError(GfnError):
    """A policy snapshot is malformed, truncated, or of unknown version."""


class FingerprintMismatchError(SnapshotError):
    """A snapshot or state space was used with an environment of another DAG."""
