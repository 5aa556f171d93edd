"""Exception hierarchy.

Three branches matter to the CLI exit-code contract: configuration/usage
errors exit 1, data errors exit 2, numerical failures exit 3.
"""


class SdpnError(Exception):
    """Base class for every library-raised error."""

    exit_code = 1


class ConfigError(SdpnError):
    exit_code = 1


class InvalidConfig(ConfigError):
    pass


class KTooLarge(ConfigError):
    """Requested top-K exceeds the cohort size."""


class DataError(SdpnError):
    exit_code = 2


class MalformedFile(DataError):
    def __init__(self, path, offset, reason):
        super().__init__(f"{path} @ {offset}: {reason}")
        self.path = str(path)
        self.offset = offset
        self.reason = reason


class UtteranceTooShort(DataError):
    pass


class MissingEmbedding(DataError):
    pass


class MissingLabels(DataError):
    """A trial needed a 1/0 label but carried '-'. """


class SingleClassInput(DataError):
    """Metrics need at least one target and one nontarget trial."""


class DegenerateCohort(DataError):
    """Cohort score spread too small to normalize against."""


class ShapeMismatch(DataError):
    pass


class ZeroVector(DataError):
    pass


class NumericalError(SdpnError):
    exit_code = 3


class DivergedLoss(NumericalError):
    """Training hit a non-finite loss term or gradient.

    Carries the last state that was still finite so the caller can persist
    it before aborting.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good
