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
`_compose` is the one fold, called only by `Node._from_checked`, the one store:
`Node(...)` stores there after its checks, the parser with branches it proved.
"""

from __future__ import annotations

from collections.abc import Iterable

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

    _fields = ("prizes",)
    __slots__ = (*_fields, "_slots")  # each label's index

    def __init__(self, prizes: Iterable[str]):
        prizes = tuple(prizes)
        if len(prizes) < 2:
            raise LengthMismatch("a prize set needs at least two prizes")
        slots = {p: i for i, p in enumerate(prizes)}
        if len(slots) != len(prizes):
            raise DuplicateLabel(f"prize labels repeat: {show(prizes)}")
        object.__setattr__(self, "_slots", slots)
        super().__init__(prizes)

    def __len__(self) -> int:
        return len(self.prizes)

    def __iter__(self):
        return iter(self.prizes)

    def index(self, prize: str) -> int:
        try:
            return self._slots[prize]
        except (KeyError, TypeError):  # an unhashable label is no prize either
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
        super().__init__(prizes, deltas)

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
        super().__init__(prize, prizes)

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
    `Node(...)` checks each branch once in `__new__`; `_from_checked` folds them
    with `_compose` into `deltas`, the collapsed degree per prize, and stores all.
    """

    _fields = ("branches",)
    __slots__ = (*_fields, "prizes", "deltas")
    __init__ = object.__init__  # __new__ stores every slot; Frozen.__init__ would reset branches

    def __new__(cls, branches: Iterable[tuple[Degree, "Lottery"]]):
        pairs, prizes = [], None
        for d, child in branches:
            check_degree(d)
            if not isinstance(child, (Leaf, Node)):
                raise TypeError(f"branch child must be a lottery, got {show(child)}")
            if prizes is None:
                prizes = child.prizes
            pairs.append((d, child))
        if any(c.prizes is not prizes and c.prizes != prizes for _, c in pairs):
            raise PrizeSetMismatch("branches draw prizes from different prize sets")
        return cls._from_checked(pairs, prizes)

    @classmethod
    def _from_checked(cls, branches: list, prizes: PrizeSet) -> "Node":
        """The one store: a node of tuple pairs of proved degrees and children on `prizes`."""
        if not branches:
            raise EmptyBranches("a lottery node needs at least one branch")
        node = object.__new__(cls)
        _set_deltas(node, _compose(branches, len(prizes.prizes)))
        _set_branches(node, tuple(branches))
        _set_prizes(node, prizes)
        return node

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


def _compose(branches: Iterable[tuple[Degree, Lottery]], width: int) -> tuple[Degree, ...]:
    """The min-plus fold of checked branches into a node's per-prize `deltas`."""
    acc = [INF] * width
    for d, child in branches:
        if isinstance(child, Leaf):
            if d < acc[child.slot]:
                acc[child.slot] = d
        elif d != INF:  # INF + s overflows for s past the float range
            for j, s in enumerate(child.deltas):
                if s < acc[j] and (t := d + s) < acc[j]:
                    acc[j] = t
    if 0 not in acc:  # children are normalized, so min(acc) is the least branch degree
        raise NotNormalized(f"S1 violated: minimum branch delta is {show(min(acc))}, expected 0")
    return tuple(acc)


def _unflatten(table: list) -> Node:
    """Rebuild the nodes `Node.__reduce__` listed; the last one is the root."""
    nodes = []
    for branches in table:
        nodes.append(Node([(d, nodes[c] if type(c) is int else c) for d, c in branches]))
    return nodes[-1]


Lottery = Leaf | Node
_set_branches, _set_prizes, _set_deltas = [Node.__dict__[f].__set__ for f in Node.__slots__]

make_node = Node  # the old name, kept until perfbench/run.py builds with Node (ROADMAP B)
