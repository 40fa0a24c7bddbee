"""Lottery trees with disbelief-weighted branches, and their reduction.

A lottery is a rooted tree: leaves name prizes, and each internal node
carries one disbelief degree per outgoing branch, normalized so the best
branch has degree 0.  A *simple* lottery is the flat form, one degree per
prize of the full prize set; a bare prize is the degenerate simple lottery
that is 0 at that prize and INF elsewhere.

Reduction collapses a compound tree to a simple lottery bottom-up: a
prize's collapsed degree is the minimum over branches of branch degree plus
the child's collapsed degree for that prize (min-plus composition).
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
    """A bare prize at the bottom of a lottery tree."""

    prize: str
    prizes: PrizeSet

    def __post_init__(self):
        self.prizes.index(self.prize)  # membership check

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
    """

    branches: tuple[tuple[Degree, "Lottery"], ...]
    prizes: PrizeSet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple((d, c) for d, c in self.branches))
        if not self.branches:
            raise EmptyBranches("a lottery node needs at least one branch")
        for d, child in self.branches:
            if type(d) is not int or d < 0:  # plain ints need no further check
                check_degree(d)
            if not isinstance(child, (Leaf, Node)):
                raise TypeError(f"branch child must be a lottery, got {child!r}")
        first = self.branches[0][1].prizes
        for _, child in self.branches:
            if child.prizes is not first and child.prizes != first:
                raise PrizeSetMismatch("branches draw prizes from different prize sets")
        low = min(d for d, _ in self.branches)
        if low != 0:
            raise NotNormalized(f"S1 violated: minimum branch delta is {low}, expected 0")
        object.__setattr__(self, "prizes", first)

    def depth(self) -> int:
        """Nodes on the longest root-to-leaf path, counted level by level."""
        levels, frontier = 0, [self]
        while frontier:
            levels += 1
            frontier = list({id(c): c for node in frontier for _, c in node.branches
                             if isinstance(c, Node)}.values())
        return levels

    def reduce(self) -> SimpleLottery:
        """Collapse to a simple lottery by min-plus composition, bottom-up.

        Post-order over an explicit stack; results are keyed by id, so a
        subtree shared by several branches is walked once per call.
        """
        index = {p: j for j, p in enumerate(self.prizes)}
        done: dict[int, list[Degree]] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            pending = [c for _, c in node.branches if isinstance(c, Node) and id(c) not in done]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            acc = [INF] * len(index)
            for d, child in node.branches:
                if isinstance(child, Node):
                    acc = [a if a <= (t := d + s) else t for a, s in zip(acc, done[id(child)])]
                elif d < acc[j := index[child.prize]]:
                    acc[j] = d
            if min(acc) != 0:
                raise NotNormalized(f"S1 violated: minimum delta is {min(acc)}, expected 0")
            done[id(node)] = acc
        return SimpleLottery(self.prizes, tuple(done[id(self)]))


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
    for p in deltas:
        prizes.index(p)
    return Node(tuple((d, Leaf(p, prizes)) for p, d in deltas.items()))
