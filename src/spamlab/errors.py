"""Exception types raised across the package."""


class SpamlabError(Exception):
    """Base class for all spamlab errors."""


class MissingPath(SpamlabError):
    """A corpus path does not exist, or a ham corpus is not a directory."""


class EmptyCorpus(SpamlabError):
    """A corpus source yielded zero bodies."""


class MalformedAddress(SpamlabError):
    """An email address is missing its '@' separator."""


class EmptyDictionary(SpamlabError):
    """Random-word injection was requested with an empty dictionary."""


class CalibrationFailed(SpamlabError):
    """The target spam fraction is unreachable with the configured senders."""


class WrapperCrashed(SpamlabError):
    """An external filter process exited nonzero or produced malformed output."""


class TrainerFailed(SpamlabError):
    """A filter trainer could not be run or rejected its input."""


class EmptyTrainingSet(SpamlabError):
    """A training mbox contained no messages."""


class IoFailure(SpamlabError):
    """A run file could not be written or read back."""


class NoSpamEvaluated(SpamlabError):
    """FAR is undefined: no spam messages were evaluated."""


class NoHamEvaluated(SpamlabError):
    """FRR is undefined: no ham messages were evaluated."""


class ConfigInvalid(SpamlabError, ValueError):
    """A simulation or scenario config, or a filter binding, failed
    validation."""
