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

from typing import Iterable, Union

from .degrees import Degree, Frozen, INF, check_degree, check_degrees, show
from .errors import (
    DuplicateLabel,
    EmptyBranches,
    LengthMismatch,
    NotNormalized,
    PrizeSetMismatch,
    UnknownPrize,
)


class PrizeSet(Frozen):
    """Distinct prize labels in strict preference order, best first."""

    __slots__ = _fields = ("prizes",)

    def __init__(self, prizes: Iterable[str]):
        prizes = tuple(prizes)
        if len(prizes) < 2:
            raise LengthMismatch("a prize set needs at least two prizes")
        if len(set(prizes)) != len(prizes):
            raise DuplicateLabel(f"prize labels repeat: {show(prizes)}")
        self._init(prizes)

    def __len__(self) -> int:
        return len(self.prizes)

    def __iter__(self):
        return iter(self.prizes)

    def index(self, prize: str) -> int:
        try:
            return self.prizes.index(prize)
        except ValueError:
            raise UnknownPrize(f"prize {show(prize)} is not in the prize set") from None

    @property
    def best(self) -> str:
        return self.prizes[0]

    @property
    def worst(self) -> str:
        return self.prizes[-1]


class SimpleLottery(Frozen):
    """One disbelief degree per prize of the full prize set, minimum 0."""

    __slots__ = _fields = ("prizes", "deltas")

    def __init__(self, prizes: PrizeSet, deltas: Iterable[Degree]):
        deltas = check_degrees(deltas)
        if len(deltas) != len(prizes):
            raise LengthMismatch(f"{len(deltas)} degrees for {len(prizes)} prizes")
        low = min(deltas)
        if low != 0:
            raise NotNormalized(f"S1 violated: minimum delta is {show(low)}, expected 0")
        self._init(prizes, deltas)

    def reachable(self) -> tuple[str, ...]:
        """Prizes with finite disbelief, in preference order."""
        return tuple(p for p, d in zip(self.prizes, self.deltas) if d != INF)

    def reduce(self) -> "SimpleLottery":
        return self


class Leaf(Frozen):
    """A bare prize at the bottom of a lottery tree; `slot` is its prize index."""

    _fields = ("prize", "prizes")
    __slots__ = (*_fields, "slot")

    def __init__(self, prize: str, prizes: PrizeSet):
        object.__setattr__(self, "slot", prizes.index(prize))
        object.__setattr__(self, "prize", prize)
        object.__setattr__(self, "prizes", prizes)

    def reduce(self) -> SimpleLottery:
        """The simple lottery certain of this prize: 0 there, INF everywhere else."""
        deltas = [INF] * len(self.prizes)
        deltas[self.slot] = 0
        return SimpleLottery(self.prizes, deltas)


class Node(Frozen):
    """An internal tree node: (degree, sub-lottery) branches, min degree 0.

    Branches with INF degree are allowed (they are absorbed by the min),
    children may have unequal depths, and a child need not mention every
    prize; all children must draw from the same prize set, stored once.
    Building the node checks each branch once and folds it into `deltas`,
    the collapsed degree per prize, as the module docstring describes.
    """

    _fields = ("branches",)
    __slots__ = (*_fields, "prizes", "deltas")

    def __init__(self, branches: Iterable[tuple[Degree, "Lottery"]]):
        branches = tuple(branches)  # a tuple is returned as it is
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
                    raise TypeError(f"branch child must be a lottery, got {show(child)}")
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
            raise NotNormalized(f"S1 violated: minimum branch delta is {show(min(acc))}, expected 0")
        if loose:  # some pair is a list
            branches = tuple([(d, c) for d, c in branches])
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "prizes", prizes)
        object.__setattr__(self, "deltas", tuple(acc))

    def __eq__(self, other):
        """As the nested branch tuples compare, without recursion or a pair walked twice."""
        if other.__class__ is not Node:
            return NotImplemented
        seen, todo = set(), [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if len(a.branches) != len(b.branches):
                return False
            for (da, ca), (db, cb) in zip(a.branches, b.branches):
                if da != db:
                    return False
                if type(ca) is Node and type(cb) is Node:
                    todo.append((ca, cb))
                elif ca != cb:
                    return False
        return True

    def __hash__(self):
        # equal branches compose to equal deltas, so this agrees with ==
        return hash(self.deltas)

    def __repr__(self):
        """The nested repr of the branch tuples, written out without recursion."""
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if type(item) is not Node:
                out.append(item if type(item) is str else show(item))
                continue
            parts = ["Node(branches=("]
            for i, (d, child) in enumerate(item.branches):
                parts += [f"{', ' if i else ''}({show(d)}, ", child, ")"]
            todo += reversed([*parts, ",))" if len(item.branches) == 1 else "))"])
        return "".join(out)

    def __reduce__(self):
        """Pickle flat, without recursion: the distinct nodes bottom-up, each
        branch's child a leaf or the index of a node listed before it."""
        index, table, todo = {}, [], [self]
        while todo:
            node = todo[-1]
            if id(node) in index:
                todo.pop()
                continue
            waiting = [c for _, c in node.branches if type(c) is Node and id(c) not in index]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            index[id(node)] = len(table)
            table.append(tuple([(d, index[id(c)] if type(c) is Node else c)
                                for d, c in node.branches]))
        return _unflatten, (table,)

    def reduce(self) -> SimpleLottery:
        """The simple lottery this tree collapses to, composed at construction."""
        return SimpleLottery(self.prizes, self.deltas)


def _unflatten(table: list) -> Node:
    """Rebuild the nodes `Node.__reduce__` listed; the last one is the root."""
    nodes = []
    for branches in table:
        nodes.append(Node([(d, nodes[c] if type(c) is int else c) for d, c in branches]))
    return nodes[-1]


Lottery = Union[Leaf, Node]

make_node = Node  # the old name, kept until perfbench/run.py builds with Node (ROADMAP B)
