"""Formal iterated brackets over the two indeterminates X0 and X1.

A :class:`BracketTree` is an element of the free magma over {X0, X1}: either a
leaf, or an ordered pair of two subtrees.  Trees are immutable and interned by
their children, so `is` is structural equality and hashing is by identity; each
tree carries its canonical text and the counts of each generator.

The ASCII grammar accepted by :func:`parse_tree`::

    TREE  := "X0" | "X1" | "(" TREE "," TREE ")" | NAMED
    NAMED := "M(" nu ")" | "W(" j "," nu ")" | "P(" j "," k "," nu ")"
           | "Q(" j "," k "," l "," nu ")" | "Qs(" j "," mu "," k "," nu ")"
           | "Qf(" j "," mu "," nu ")" | "R(" j "," k "," l "," m "," nu ")"
           | "Rs(" j "," k "," l "," mu "," nu ")" | "D"

with j, k, l, m >= 1 and mu, nu >= 0.  Whitespace is insignificant.  The named
shortcuts expand to the standard families built from right-iterated brackets
with X0 (`M`), their squares (`W`), and the higher layers (`P`, `Q`, `Qs`,
`Qf`, `R`, `Rs`, `D`); see the module functions of the same names.

:func:`parse_tree` is one loop over the words one compiled regex finds
between whitespace, with an explicit stack of open brackets, so nesting has
no depth limit.

:func:`match_named_family` inverts these builders by composition: it strips
a tree's trailing zeros, matches both children of the germ, and applies the
one rule their families fit (two consecutive M make a W; an M over a W, P or
Q makes a P, Q or R; two W make a Qs or Qf; a W over a P makes an Rs).  The
recursion is cut at depth 4, the deepest nesting R -> Q -> P -> W -> M, so a
deep tree, such as a long ad-chain, is rejected without a RecursionError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


class TreeSyntaxError(ValueError):
    """Raised on malformed tree text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BracketTree:
    """An iterated formal bracket: a leaf X0/X1 or an ordered pair (left, right).

    Instances are immutable and interned: a leaf by its generator, a node by
    the identities of its (already interned) children.  So `is` comparison
    agrees with structural equality, and `text`, the canonical form, is built
    once per distinct tree.
    """

    __slots__ = ("left", "right", "generator", "n0", "n1", "text")

    _interned: dict[object, "BracketTree"] = {}

    def __init__(self, generator: Optional[int], left: Optional["BracketTree"],
                 right: Optional["BracketTree"], text: str):
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "text", text)
        if generator is not None:
            object.__setattr__(self, "n0", 1 if generator == 0 else 0)
            object.__setattr__(self, "n1", 1 if generator == 1 else 0)
        else:
            object.__setattr__(self, "n0", left.n0 + right.n0)
            object.__setattr__(self, "n1", left.n1 + right.n1)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BracketTree is immutable")

    @property
    def is_leaf(self) -> bool:
        return self.generator is not None

    @property
    def length(self) -> int:
        return self.n0 + self.n1

    @property
    def bidegree(self) -> tuple[int, int]:
        """(n1, n0): control order first, as everywhere in this package."""
        return (self.n1, self.n0)

    def __repr__(self) -> str:
        return self.text


X0 = BracketTree._interned.setdefault(0, BracketTree(0, None, None, "X0"))
X1 = BracketTree._interned.setdefault(1, BracketTree(1, None, None, "X1"))


def node(left: BracketTree, right: BracketTree) -> BracketTree:
    """The ordered pair (left, right) in the free magma."""
    key = (left, right)
    tree = BracketTree._interned.get(key)
    if tree is None:
        tree = BracketTree(None, left, right, f"({left.text},{right.text})")
        # idempotent insert: a concurrent duplicate is structurally identical
        tree = BracketTree._interned.setdefault(key, tree)
    return tree


def zeros(b: BracketTree, nu: int) -> BracketTree:
    """Right-iterated bracketing with X0: b 0^nu = (...((b, X0), X0)..., X0)."""
    for _ in range(nu):
        b = node(b, X0)
    return b


def strip_trailing_zeros(b: BracketTree) -> tuple[BracketTree, int]:
    """Peel all trailing right X0 factors; returns (core, count)."""
    nu = 0
    while not b.is_leaf and b.right is X0:
        b = b.left
        nu += 1
    return b, nu


def ad(a: BracketTree, m: int, b: BracketTree) -> BracketTree:
    """The m-fold left bracketing ad_a^m(b) = (a, (a, ... (a, b)...))."""
    for _ in range(m):
        b = node(a, b)
    return b


def strip_ad(a: BracketTree, b: BracketTree) -> tuple[BracketTree, int]:
    """Peel leading left `a` factors: (rest, m) with b == ad(a, m, rest)."""
    m = 0
    while not b.is_leaf and b.left is a:
        b = b.right
        m += 1
    return b, m


# ---------------------------------------------------------------------------
# Named families

def M(nu: int) -> BracketTree:
    return zeros(X1, nu)


def W(j: int, nu: int = 0) -> BracketTree:
    if j < 1:
        raise ValueError(f"W requires j >= 1, got j={j}")
    return zeros(node(M(j - 1), M(j)), nu)


def P(j: int, k: int, nu: int = 0) -> BracketTree:
    if j < 1 or k < 1:
        raise ValueError(f"P requires j,k >= 1, got j={j}, k={k}")
    return zeros(node(M(k - 1), W(j, 0)), nu)


def Q(j: int, k: int, l: int, nu: int = 0) -> BracketTree:
    if min(j, k, l) < 1:
        raise ValueError(f"Q requires j,k,l >= 1, got ({j},{k},{l})")
    return zeros(node(M(l - 1), P(j, k, 0)), nu)


def Q_sharp(j: int, mu: int, k: int, nu: int = 0) -> BracketTree:
    if j < 1 or k < 1:
        raise ValueError(f"Qs requires j,k >= 1, got j={j}, k={k}")
    return zeros(node(W(j, mu), W(k, 0)), nu)


def Q_flat(j: int, mu: int, nu: int = 0) -> BracketTree:
    if j < 1:
        raise ValueError(f"Qf requires j >= 1, got j={j}")
    return zeros(node(W(j, mu), W(j, mu + 1)), nu)


def R(j: int, k: int, l: int, m: int, nu: int = 0) -> BracketTree:
    if min(j, k, l, m) < 1:
        raise ValueError(f"R requires j,k,l,m >= 1, got ({j},{k},{l},{m})")
    return zeros(node(M(m - 1), Q(j, k, l, 0)), nu)


def R_sharp(j: int, k: int, l: int, mu: int, nu: int = 0) -> BracketTree:
    if min(j, k, l) < 1:
        raise ValueError(f"Rs requires j,k,l >= 1, got ({j},{k},{l})")
    return zeros(node(W(l, mu), P(j, k, 0)), nu)


def D() -> BracketTree:
    """The order-6 germ ad^2 of X0 by P(1,1,0)."""
    return ad(P(1, 1, 0), 2, X0)


_D_TREE = D()


@dataclass(frozen=True)
class FamilyPattern:
    """A structural match: the tree built by `family(*indices, nu)`."""

    family: str
    indices: tuple[int, ...]
    nu: int


# the deepest nesting, R -> Q -> P -> W -> M; nothing deeper can match
_MAX_NESTING = 4

# the family of (M(i-1), F(*indices, 0)), indexed (*indices, i)
_OVER_M = {"W": "P", "P": "Q", "Q": "R"}


def match_named_family(b: BracketTree) -> Optional[FamilyPattern]:
    """Structural match of a tree against the eight named families.

    Purely structural: no Hall-set membership is implied (e.g. "P(3,1,0)"
    names the tree (M(0), W(3,0)) even though it is not a basis element).
    """
    match = _match(b, _MAX_NESTING)
    return FamilyPattern(*match) if match else None


def _match(b: BracketTree, depth: int) -> Optional[tuple[str, tuple, int]]:
    core, nu = strip_trailing_zeros(b)
    if core is X1:
        return "M", (), nu
    if core.is_leaf or depth == 0:
        return None
    left = _match(core.left, depth - 1)
    if left is None or left[0] not in ("M", "W"):
        return None
    right = _match(core.right, depth - 1)
    if right is None:
        return None
    (family, indices, mu), (rfamily, rindices, rnu) = left, right
    if family == "M":
        i = mu + 1
        if rfamily == "M" and rnu == i:
            return "W", (i,), nu
        if rfamily in _OVER_M and rnu == 0:
            return _OVER_M[rfamily], (*rindices, i), nu
        return None
    (j,) = indices
    if rfamily == "W":
        (k,) = rindices
        if rnu == 0 and k != j:
            return "Qs", (j, mu, k), nu
        if k == j and rnu == mu + 1:
            return "Qf", (j, mu), nu
    elif rfamily == "P" and rnu == 0:
        return "Rs", (*rindices, j, mu), nu
    return None


def named_form(b: BracketTree) -> Optional[str]:
    """Render a tree via the named-family shortcuts if it structurally matches."""
    if b.is_leaf:
        return b.text
    if b is _D_TREE:
        return "D"
    pattern = match_named_family(b)
    if pattern is None:
        return None
    args = ",".join(str(i) for i in (*pattern.indices, pattern.nu))
    return f"{pattern.family}({args})"


def display_form(b: BracketTree) -> str:
    """Named form when available, canonical text otherwise."""
    return named_form(b) or b.text


# ---------------------------------------------------------------------------
# Parser

# name -> (builder, number of indices, positions of indices that must be >= 1;
# the others only >= 0)
_NAMED_FAMILIES = {
    "M": (M, 1, ()),
    "W": (W, 2, (0,)),
    "P": (P, 3, (0, 1)),
    "Q": (Q, 4, (0, 1, 2)),
    "Qs": (Q_sharp, 4, (0, 2)),
    "Qf": (Q_flat, 3, (0,)),
    "R": (R, 5, (0, 1, 2, 3)),
    "Rs": (R_sharp, 5, (0, 1, 2)),
}


# a maximal alphanumeric word (empty before punctuation or the end) between
# whitespace; group 2 holds its leading decimal digits
_TOKEN = re.compile(r"\s*((\d*)[^\W_]*)\s*")

_LEAVES = {"X0": X0, "X1": X1, "D": _D_TREE}


def _expect(text: str, pos: int, ch: str) -> int:
    """The position after `ch`, which must be the next non-space character."""
    if text.startswith(ch, pos):
        return pos + 1
    start = _TOKEN.match(text, pos).start(1)
    if not text.startswith(ch, start):
        raise TreeSyntaxError(f"expected {ch!r}", start)
    return start + 1


def _family(text: str, name: str, end: int) -> tuple[BracketTree, int]:
    """The family instance whose name ends at `end`, and the position after
    its indices."""
    if name not in _NAMED_FAMILIES:
        raise TreeSyntaxError(f"unknown symbol {name!r}", end)
    builder, arity, positive = _NAMED_FAMILIES[name]
    args = []
    pos = _expect(text, end, "(")
    while True:
        match = _TOKEN.match(text, pos)
        digits = match.group(2)
        if not digits:
            raise TreeSyntaxError("expected a decimal integer", match.start(1))
        args.append(int(digits))
        # a word that runs on past its digits fails at ")" just after them
        pos = match.end() if digits == match.group(1) else match.end(2)
        if not text.startswith(",", pos):
            break
        pos += 1
    pos = _expect(text, pos, ")")
    if len(args) != arity:
        raise TreeSyntaxError(f"{name} takes {arity} indices, got {len(args)}",
                              end)
    for i in positive:
        if args[i] < 1:
            raise TreeSyntaxError(f"invalid family index: {name} argument "
                                  f"{i + 1} must be >= 1", end)
    return builder(*args), pos


def parse_tree(text: str) -> BracketTree:
    """Parse the ASCII tree grammar; round-trips with the canonical printer."""
    # the open brackets, each None until its left child is read
    stack: list[Optional[BracketTree]] = []
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        name, pos = match.group(1), match.end()
        if not name:
            if not text.startswith("(", pos):
                raise TreeSyntaxError("expected a tree", pos)
            stack.append(None)
            pos += 1
            continue
        tree = _LEAVES.get(name)
        if tree is None:
            tree, pos = _family(text, name, match.end(1))
        while stack and stack[-1] is not None:
            pos = _expect(text, pos, ")")
            tree = node(stack.pop(), tree)
        if not stack:
            break
        pos = _expect(text, pos, ",")
        stack[-1] = tree
    end = _TOKEN.match(text, pos).start(1)
    if end != len(text):
        raise TreeSyntaxError("trailing input after tree", end)
    return tree
