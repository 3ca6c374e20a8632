"""Exception types raised across the package: one class per kind of
failure. The CLI prints any SpamlabError as one "error: ..." line."""


class SpamlabError(Exception):
    """Base class for all spamlab errors."""


class ConfigInvalid(SpamlabError, ValueError):
    """A config, a filter binding, or a corpus or training stream that a
    config names, cannot make a run: a bad key or value, a missing,
    unreadable or empty corpus, an empty random-word dictionary, a
    training stream or set with no ham or no spam, or a spam target
    calibration cannot reach."""


class TrainerFailed(SpamlabError):
    """A filter trainer could not be run or rejected its input."""


class WrapperCrashed(SpamlabError):
    """An external filter process could not be run, exited nonzero or
    produced malformed output."""


class IoFailure(SpamlabError):
    """A run file could not be written or read back."""
