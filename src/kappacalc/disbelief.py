"""Disbelief functions over finite frames of possible worlds.

A disbelief function ranks worlds by implausibility: 0 means "not
disbelieved", larger values mean "more firmly disbelieved", ``INF`` means
"disbelieved with certainty".  The representation is a potential, one degree
per world; the degree of an event is the minimum over its members (axiom
S2), and the potential's own minimum must be 0 (axiom S1).  Conditioning
(axiom S3) shifts the surviving worlds down by the event's degree.

Everything here is immutable and purely functional; values can be shared
freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .degrees import Degree, Frozen, INF, Signed, check_degrees, normalize_degrees, show
from .errors import (
    AllInfinite,
    ConditionOnDisbelievedCertainty,
    DuplicateLabel,
    FrameMismatch,
    IncompleteGrouping,
    LengthMismatch,
    NotNormalized,
    UnknownWorld,
)


class Frame(Frozen):
    """An ordered set of distinct world labels; order fixes the indexing."""

    __slots__ = _fields = ("worlds",)

    def __init__(self, worlds: Iterable[str]):
        worlds = tuple(worlds)
        if not worlds:
            raise LengthMismatch("a frame needs at least one world")
        if len(set(worlds)) != len(worlds):
            raise DuplicateLabel(f"frame labels repeat: {show(worlds)}")
        super().__init__(worlds)

    def __len__(self) -> int:
        return len(self.worlds)

    def __iter__(self):
        return iter(self.worlds)


class DisbeliefFunction(Frozen):
    """A normalized disbelief potential over a frame.

    The constructor is strict: the potential must already satisfy S1
    (minimum exactly 0).  Pass an unnormalized vector through
    :func:`~kappacalc.degrees.normalize_degrees` to repair it by shifting.
    """

    __slots__ = _fields = ("frame", "potential")

    def __init__(self, frame: Frame, potential: Iterable[Degree]):
        potential = check_degrees(potential)
        if len(potential) != len(frame):
            raise LengthMismatch(f"potential has {len(potential)} entries for {len(frame)} worlds")
        low = min(potential)  # a frame has a world, so the potential has an entry
        if low == INF:
            raise AllInfinite("potential is infinite everywhere")
        if low != 0:
            raise NotNormalized(f"S1 violated: minimum degree is {show(low)}, expected 0")
        super().__init__(frame, potential)

    def degree(self, event: Iterable[str]) -> Degree:
        """Degree of disbelief of an event: min over members, INF if empty (S2)."""
        members = set(event)
        unknown = members.difference(self.frame.worlds)
        if unknown:
            raise UnknownWorld(f"not in the frame: {show(sorted(unknown))}")
        return min((v for w, v in zip(self.frame, self.potential) if w in members), default=INF)

    def condition(self, event: Iterable[str]) -> "DisbeliefFunction":
        """Revise on an event (S3): outside worlds go to INF, inside shift down."""
        members = set(event)
        if self.degree(members) == INF:
            raise ConditionOnDisbelievedCertainty(
                "cannot condition on an event disbelieved with certainty"
            )
        kept = [v if w in members else INF for w, v in zip(self.frame.worlds, self.potential)]
        return DisbeliefFunction(self.frame, normalize_degrees(kept))

    def combine(self, other: "DisbeliefFunction") -> "DisbeliefFunction":
        """Pointwise addition of potentials, renormalized.

        Raw pointwise sums generally break S1, so the result is shifted back
        to a zero minimum.  Fully contradictory sources (every world infinite
        in one or the other) raise ``AllInfinite``.
        """
        if other.frame != self.frame:
            raise FrameMismatch("combine needs both functions on the same frame")
        raw = [INF if INF in (a, b) else a + b for a, b in zip(self.potential, other.potential)]
        return DisbeliefFunction(self.frame, normalize_degrees(raw))

    def marginalize(self, grouping: Mapping[str, str]) -> "DisbeliefFunction":
        """Coarsen the frame; each group's degree is the minimum over its preimage.

        ``grouping`` maps every world to a coarse label.  Coarse labels are
        ordered by first appearance along the fine frame.  The result
        satisfies S1 automatically.
        """
        unknown = set(grouping) - set(self.frame.worlds)
        if unknown:
            raise UnknownWorld(f"grouping mentions unknown worlds: {show(sorted(unknown))}")
        missing = [w for w in self.frame.worlds if w not in grouping]
        if missing:
            raise IncompleteGrouping(f"no group for worlds: {show(missing)}")
        lows: dict[str, Degree] = {}  # keeps first-appearance order
        for w, v in zip(self.frame.worlds, self.potential):
            label = grouping[w]
            lows[label] = min(lows.get(label, v), v)
        return DisbeliefFunction(Frame(lows), lows.values())

    def belief(self, event: Iterable[str]) -> Signed:
        """Signed belief in an event.

        Positive m: believed to degree m (the complement is disbelieved).
        Negative m: disbelieved to degree -m.  Zero: neither.  The whole
        frame is believed with certainty (+INF), the empty event disbelieved
        with certainty (-INF).
        """
        members = set(event)
        d = self.degree(members)
        if d > 0:
            return -d
        complement = [w for w in self.frame.worlds if w not in members]
        return self.degree(complement)
