"""
Collapsing a compound lottery to a simple one
=============================================

A lottery tree carries a disbelief degree on every branch.  Reduction
flattens the tree: a prize's collapsed degree is the cheapest root-to-leaf
path that reaches it, where "cheap" adds degrees along the path and takes
the minimum across paths.
"""

from kappacalc import Leaf, Node, PrizeSet

prizes = PrizeSet(("o1", "o2", "o3"))

# Inner lotteries first.  [o1.0, o2.1] means: o1 not disbelieved,
# o2 disbelieved to degree 1, o3 unreachable.
left = Node([(0, Leaf("o1", prizes)), (1, Leaf("o2", prizes))])
right = Node([(0, Leaf("o2", prizes)), (2, Leaf("o3", prizes))])

# The compound lottery leans toward the right branch.
tree = Node([(4, left), (0, right)])

reduced = tree.reduce()
print("reduced deltas:", dict(zip(prizes, reduced.deltas)))

# By hand: o1 is only reachable through the left branch, 4 + 0 = 4.
# o2 has two routes, min(4 + 1, 0 + 0) = 0.  o3 costs 0 + 2 = 2.
assert reduced.deltas == (4, 0, 2)

# Reduction respects the S1 axiom automatically: some prize has degree 0.
print("reachable prizes:", reduced.reachable())

# A leaf is the degenerate case: certain of its own prize.
print("leaf o3 reduces to:", Leaf("o3", prizes).reduce().deltas)
