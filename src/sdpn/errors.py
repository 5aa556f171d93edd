"""Exception hierarchy: one class per CLI exit code.

Configuration/usage errors exit 1, data errors exit 2, numerical failures
exit 3. The message names the term, file or offset at fault; the class
only picks the exit code.
"""


class SdpnError(Exception):
    """Base class for every library-raised error."""

    exit_code = 1


class InvalidConfig(SdpnError):
    exit_code = 1


class DataError(SdpnError):
    exit_code = 2


class MalformedFile(DataError):
    def __init__(self, path, offset, reason):
        super().__init__(f"{path} @ {offset}: {reason}")
        self.path = str(path)
        self.offset = offset
        self.reason = reason


class DivergedLoss(SdpnError):
    """Training hit a non-finite loss term or gradient.

    Carries the last state that was still finite so the caller can persist
    it before aborting.
    """

    exit_code = 3

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good
