"""Lottery trees with disbelief-weighted branches, and their reduction.

A lottery is a rooted tree: leaves name prizes, and each internal node
carries one disbelief degree per outgoing branch, normalized so the best
branch has degree 0.  A *simple* lottery is the flat form, one degree per
prize of the full prize set; a bare prize is the degenerate simple lottery
that is 0 at that prize and INF elsewhere.

Reduction collapses a tree to a simple lottery by min-plus composition: a
prize's degree is the minimum over branches of branch degree plus the
child's collapsed degree for that prize.  Each node composes its branches
when it is built, from children already composed, so reduce reads the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .degrees import Degree, INF, check_degree, check_degrees, normalize_degrees
from .errors import (
    DuplicateLabel,
    EmptyBranches,
    LengthMismatch,
    NotNormalized,
    PrizeSetMismatch,
    UnknownPrize,
)


@dataclass(frozen=True)
class PrizeSet:
    """Distinct prize labels in strict preference order, best first."""

    prizes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "prizes", tuple(self.prizes))
        if len(self.prizes) < 2:
            raise LengthMismatch("a prize set needs at least two prizes")
        if len(set(self.prizes)) != len(self.prizes):
            raise DuplicateLabel(f"prize labels repeat: {self.prizes!r}")

    def __len__(self) -> int:
        return len(self.prizes)

    def __iter__(self):
        return iter(self.prizes)

    def __contains__(self, prize: str) -> bool:
        return prize in self.prizes

    def index(self, prize: str) -> int:
        try:
            return self.prizes.index(prize)
        except ValueError:
            raise UnknownPrize(f"prize {prize!r} is not in the prize set") from None

    @property
    def best(self) -> str:
        return self.prizes[0]

    @property
    def worst(self) -> str:
        return self.prizes[-1]


@dataclass(frozen=True)
class SimpleLottery:
    """One disbelief degree per prize of the full prize set, minimum 0."""

    prizes: PrizeSet
    deltas: tuple[Degree, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", check_degrees(self.deltas))
        if len(self.deltas) != len(self.prizes):
            raise LengthMismatch(
                f"{len(self.deltas)} degrees for {len(self.prizes)} prizes"
            )
        low = min(self.deltas)
        if low != 0:
            raise NotNormalized(f"S1 violated: minimum delta is {low}, expected 0")

    @classmethod
    def from_raw(cls, prizes: PrizeSet, values: Iterable[Degree]) -> "SimpleLottery":
        return cls(prizes, normalize_degrees(values))

    def __getitem__(self, prize: str) -> Degree:
        return self.deltas[self.prizes.index(prize)]

    def reachable(self) -> tuple[str, ...]:
        """Prizes with finite disbelief, in preference order."""
        return tuple(p for p, d in zip(self.prizes, self.deltas) if d != INF)

    def reduce(self) -> "SimpleLottery":
        return self


def prize_lottery(prize: str, prizes: PrizeSet) -> SimpleLottery:
    """The simple lottery certain of one prize: 0 there, INF everywhere else."""
    i = prizes.index(prize)
    return SimpleLottery(prizes, tuple(0 if j == i else INF for j in range(len(prizes))))


@dataclass(frozen=True)
class Leaf:
    """A bare prize at the bottom of a lottery tree; `slot` is its prize index."""

    prize: str
    prizes: PrizeSet
    slot: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slot", self.prizes.index(self.prize))

    def depth(self) -> int:
        return 0

    def reduce(self) -> SimpleLottery:
        return prize_lottery(self.prize, self.prizes)


@dataclass(frozen=True)
class Node:
    """An internal tree node: (degree, sub-lottery) branches, min degree 0.

    Branches with INF degree are allowed (they are absorbed by the min),
    children may have unequal depths, and a child need not mention every
    prize; all children must draw from the same prize set, stored once.
    Building the node checks each branch once and folds it into `deltas`,
    the collapsed degree per prize, as the module docstring describes.
    """

    branches: tuple[tuple[Degree, "Lottery"], ...]
    prizes: PrizeSet = field(init=False, compare=False, repr=False)
    deltas: tuple[Degree, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        branches = self.branches
        if type(branches) is not tuple:
            branches = tuple(branches)
        if not branches:
            raise EmptyBranches("a lottery node needs at least one branch")
        prizes = acc = None
        loose = mismatch = False
        for pair in branches:
            d, child = pair
            if type(pair) is not tuple:
                loose = True
            if type(d) is not int or d < 0:  # plain ints need no further check
                check_degree(d)
            if type(child) is not Leaf or child.prizes is not prizes:  # else a plain leaf, same set
                if not isinstance(child, (Leaf, Node)):
                    raise TypeError(f"branch child must be a lottery, got {child!r}")
                if prizes is None:
                    prizes, acc = child.prizes, [INF] * len(child.prizes)
                if child.prizes is not prizes and child.prizes != prizes:
                    mismatch = True  # raised once every branch has been type-checked
                    continue
                if isinstance(child, Node):
                    if d != INF:  # INF + s overflows for s past the float range
                        for j, s in enumerate(child.deltas):
                            if s < acc[j] and (t := d + s) < acc[j]:
                                acc[j] = t
                    continue
            if d < acc[child.slot]:
                acc[child.slot] = d
        if mismatch:
            raise PrizeSetMismatch("branches draw prizes from different prize sets")
        if 0 not in acc:  # children are normalized, so min(acc) is the least branch degree
            raise NotNormalized(f"S1 violated: minimum branch delta is {min(acc)}, expected 0")
        if loose or branches is not self.branches:  # list pairs or a non-tuple iterable
            object.__setattr__(self, "branches", tuple([(d, c) for d, c in branches]))
        object.__setattr__(self, "prizes", prizes)
        object.__setattr__(self, "deltas", tuple(acc))

    def __hash__(self):
        # equal branches compose to equal deltas, so this agrees with ==
        return hash(self.deltas)

    def depth(self) -> int:
        """Nodes on the longest root-to-leaf path, counted level by level."""
        levels, frontier = 0, [self]
        while frontier:
            levels += 1
            frontier = list({id(c): c for node in frontier for _, c in node.branches
                             if isinstance(c, Node)}.values())
        return levels

    def reduce(self) -> SimpleLottery:
        """The simple lottery this tree collapses to, composed at construction."""
        return SimpleLottery(self.prizes, self.deltas)


Lottery = Union[Leaf, Node]


def make_node(branches: Iterable[tuple[Degree, Lottery]]) -> Node:
    """Validated node constructor; accepts any iterable of (degree, child) pairs."""
    return Node(tuple(branches))


def simple_node(prizes: PrizeSet, deltas: Mapping[str, Degree]) -> Node:
    """Depth-1 tree over leaf prizes, from a prize -> degree mapping.

    Prizes absent from the mapping get no branch at all (equivalently, INF
    disbelief once reduced), which is how sparse lotteries like
    ``[o1.0, o3.2]`` are written.
    """
    return Node([(d, Leaf(p, prizes)) for p, d in deltas.items()])
