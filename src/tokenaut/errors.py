"""Shared exception types."""


class TokenautError(Exception):
    """Base class for package-specific errors."""


class ScaleGuardExceeded(TokenautError):
    """An instance exceeded a configured size or search budget.

    This is a refusal, not a crash: the instance was rejected before or
    during the computation, and nothing partial is reported.
    """


class CertificationError(TokenautError):
    """A constructed generator failed its edge-by-edge automorphism check.

    The verification pipelines turn this into a failed report, with
    ``generators_certified`` false, rather than a crash.
    """
