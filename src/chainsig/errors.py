"""Exception hierarchy shared by all chainsig modules."""


class ChainsigError(Exception):
    """Base class for every error raised by this package."""


class UnsupportedVariant(ChainsigError):
    """The selected provider does not implement the requested variant."""


class BackendFailure(ChainsigError):
    """A cryptographic backend failed in a way other than a clean
    invalid-signature verdict."""


class CorrectnessViolation(ChainsigError):
    """A verification that must succeed returned false, or a roundtrip
    produced inconsistent results."""


class ClockUnavailable(ChainsigError):
    """No monotonic high-resolution clock is available."""


class EmptySamples(ChainsigError):
    """A statistic was requested over an empty sample list."""


class DuplicateRow(ChainsigError):
    """Two result rows share the same identity columns."""


class EmptySelection(ChainsigError):
    """A chart selection matched no rows."""


class IoFailure(ChainsigError):
    """Reading or writing an output artifact failed."""


class UsageError(ChainsigError):
    """Command line arguments were invalid."""
