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
"""

from __future__ import annotations

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


def _match_M(b: BracketTree) -> Optional[int]:
    core, nu = strip_trailing_zeros(b)
    return nu if core is X1 else None


def _match_W_germ(b: BracketTree) -> Optional[int]:
    """j such that b == (M(j-1), M(j)), else None."""
    if b.is_leaf:
        return None
    jl = _match_M(b.left)
    jr = _match_M(b.right)
    if jl is not None and jr == jl + 1:
        return jl + 1
    return None


def _match_W(b: BracketTree) -> Optional[tuple[int, int]]:
    core, nu = strip_trailing_zeros(b)
    j = _match_W_germ(core)
    return (j, nu) if j is not None else None


def _match_P_germ(b: BracketTree) -> Optional[tuple[int, int]]:
    """(j, k) such that b == (M(k-1), W(j, 0)), else None."""
    if b.is_leaf:
        return None
    k = _match_M(b.left)
    j = _match_W_germ(b.right)
    if k is not None and j is not None:
        return (j, k + 1)
    return None


def _match_Q_germ(b: BracketTree) -> Optional[tuple[int, int, int]]:
    if b.is_leaf:
        return None
    l = _match_M(b.left)
    jk = _match_P_germ(b.right)
    if l is not None and jk is not None:
        return (jk[0], jk[1], l + 1)
    return None


def match_named_family(b: BracketTree) -> Optional[FamilyPattern]:
    """Structural match of a tree against the eight named families.

    Purely structural: no Hall-set membership is implied (e.g. "P(3,1,0)"
    names the tree (M(0), W(3,0)) even though it is not a basis element).
    """
    core, nu = strip_trailing_zeros(b)
    if core is X1:
        return FamilyPattern("M", (), nu)
    if core.is_leaf:
        return None
    j = _match_W_germ(core)
    if j is not None:
        return FamilyPattern("W", (j,), nu)
    p = _match_P_germ(core)
    if p is not None:
        return FamilyPattern("P", p, nu)
    q = _match_Q_germ(core)
    if q is not None:
        return FamilyPattern("Q", q, nu)
    wl = _match_W(core.left)
    if wl is not None:
        j, mu = wl
        wr = _match_W(core.right)
        if wr is not None:
            k, nur = wr
            if nur == 0 and k != j:
                return FamilyPattern("Qs", (j, mu, k), nu)
            if k == j and nur == mu + 1:
                return FamilyPattern("Qf", (j, mu), nu)
        pr = _match_P_germ(core.right)
        if pr is not None:
            return FamilyPattern("Rs", (*pr, j, mu), nu)
    ml = _match_M(core.left)
    if ml is not None:
        qr = _match_Q_germ(core.right)
        if qr is not None:
            return FamilyPattern("R", (*qr, ml + 1), nu)
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TreeSyntaxError:
        return TreeSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a decimal integer")
        return int(self.text[start:self.pos])

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a tree")
        return self.text[start:self.pos]

    def parse_tree(self) -> BracketTree:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            left = self.parse_tree()
            self.expect(",")
            right = self.parse_tree()
            self.expect(")")
            return node(left, right)
        name = self.parse_name()
        if name == "X0":
            return X0
        if name == "X1":
            return X1
        if name == "D":
            return _D_TREE
        if name in _NAMED_FAMILIES:
            builder, arity, positive = _NAMED_FAMILIES[name]
            args_start = self.pos
            self.expect("(")
            args = [self.parse_int()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.parse_int())
            self.expect(")")
            if len(args) != arity:
                self.pos = args_start
                raise self.error(
                    f"{name} takes {arity} indices, got {len(args)}")
            for i in positive:
                if args[i] < 1:
                    self.pos = args_start
                    raise self.error(
                        f"invalid family index: {name} argument {i + 1} must be >= 1")
            return builder(*args)
        raise self.error(f"unknown symbol {name!r}")


def parse_tree(text: str) -> BracketTree:
    """Parse the ASCII tree grammar; round-trips with the canonical printer."""
    parser = _Parser(text)
    tree = parser.parse_tree()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after tree")
    return tree
