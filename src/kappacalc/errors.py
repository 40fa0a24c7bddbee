"""Exception types.

Calculus-level invariant violations all derive from :class:`KappaCalcError`
(a ``ValueError``), so callers can catch the whole family at once.  File
syntax and schema problems raise :class:`ParseError` instead, which is kept
outside the family on purpose: the CLI maps the two to different exit codes.
"""


class KappaCalcError(ValueError):
    """A constructed value would violate a calculus invariant."""


class LengthMismatch(KappaCalcError):
    """A vector's length does not match its frame or prize set."""


class NotNormalized(KappaCalcError):
    """Minimum degree is not zero (normalization axiom S1)."""


class AllInfinite(KappaCalcError):
    """Every degree is infinite; no finite minimum exists."""


class UnknownWorld(KappaCalcError):
    """An event mentions a world label outside the frame."""


class DuplicateLabel(KappaCalcError):
    """A frame or prize set repeats a label."""


class IncompleteGrouping(KappaCalcError):
    """A coarsening map leaves some world without a group."""


class ConditionOnDisbelievedCertainty(KappaCalcError):
    """Conditioning event has infinite disbelief; the shift is undefined."""


class FrameMismatch(KappaCalcError):
    """Two disbelief functions live on different frames."""


class UnknownPrize(KappaCalcError):
    """A prize label is not a member of the prize set."""


class EmptyBranches(KappaCalcError):
    """A lottery node has no branches."""


class PrizeSetMismatch(KappaCalcError):
    """Sub-lotteries of one node draw prizes from different prize sets."""


class EmptyList(KappaCalcError):
    """A collection that needs at least one member is empty (a decision with no acts)."""


class InvalidAssessment(KappaCalcError):
    """A prize assessment breaks an endpoint or monotonicity rule."""


class UnassessedPrize(KappaCalcError):
    """A lottery uses a prize the assessment does not cover."""


class UnknownAct(KappaCalcError):
    """An act label is not part of the decision problem."""


class OutOfRange(KappaCalcError):
    """A probability, utility, base parameter or degree is outside its domain."""


class ParseError(Exception):
    """A problem file is syntactically or structurally malformed."""
