"""Control signals on [0, t]: exact piecewise polynomials and float samples.

The exact backbone is :class:`PiecewisePolyControl`: rational breakpoints with
one polynomial per piece, written in the local variable (s - left endpoint).
This class is closed under the operations the coordinate machinery needs:
sums, products, antidifferentiation (continuous across breakpoints), exact
definite integrals, and the kernel integrals int_0^t (t-s)^nu/nu! f(s) ds
(done as iterated antiderivatives).  Its float side (RK4, sampling, norms)
reads the float coefficient table :meth:`PiecewisePolyControl.float_pieces`,
built once per control, through one float Horner, :func:`horner`, at a point
or over a whole grid.

:class:`SampledControl` holds float values on a uniform grid and has the
operations the coordinate recursion calls (products, powers, scaling, the
trapezoid antiderivative, the end value), so one recursion serves both
control types; a sampled value carries a Richardson error estimate against
the half grid.  Every iterated primitive of either type is :func:`primitive`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence, Union

import numpy as np


def horner(coeffs, x):
    """`Poly.eval`'s float Horner on ascending float coefficients, highest
    first from 0.0.  x and the coefficients are floats or arrays that
    broadcast together; no coefficients give the scalar 0.0."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Poly:
    """Dense univariate polynomial with Fraction coefficients (ascending)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):  # trailing zeros trimmed
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, factor) -> "Poly":
        factor = Fraction(factor)
        return Poly([c * factor for c in self.coeffs])

    def power(self, exponent: int) -> "Poly":
        """self^exponent by repeated squaring."""
        out, base = Poly.constant(1), self
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out

    def antiderivative(self, constant=0) -> "Poly":
        out = [Fraction(constant)]
        out.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return Poly(out)

    def derivative(self) -> "Poly":
        return Poly([c * i for i, c in enumerate(self.coeffs) if i >= 1])

    def shift(self, delta) -> "Poly":
        """Compose with (x + delta): p(x + delta), exact."""
        delta = Fraction(delta)
        if not delta:
            return self
        out = [Fraction(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            binom = 1
            dpow = Fraction(1)
            for j in range(i, -1, -1):
                out[j] += c * binom * dpow
                binom = binom * j // (i - j + 1)
                dpow *= delta
        return Poly(out)

    def eval(self, x):
        """Horner evaluation; exact for Fraction/int, float for float input."""
        if not isinstance(x, (Fraction, int)):
            return horner([float(c) for c in self.coeffs], x)
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


class PiecewisePolyControl:
    """Piecewise polynomial on [0, t] with exact rational data.

    Pieces are polynomials in the local variable (s - breakpoints[i]) on
    [breakpoints[i], breakpoints[i+1]].  The represented function is the
    right-continuous union of the pieces (only integrals and pointwise values
    matter here, so the convention at breakpoints is immaterial).
    """

    __slots__ = ("breakpoints", "pieces", "_floats", "__weakref__")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Poly]):
        bps = [Fraction(b) for b in breakpoints]
        if len(bps) < 2 or any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing, >= 2")
        if bps[0] != 0:
            raise ValueError("domain must start at 0")
        if len(pieces) != len(bps) - 1:
            raise ValueError("need one piece per interval")
        self.breakpoints = tuple(bps)
        self.pieces = tuple(p if isinstance(p, Poly) else Poly(p)
                            for p in pieces)
        self._floats = None

    @property
    def horizon(self) -> Fraction:
        return self.breakpoints[-1]

    @classmethod
    def constant(cls, value, t) -> "PiecewisePolyControl":
        return cls((0, t), (Poly.constant(value),))

    @classmethod
    def piecewise_constant(cls, breakpoints: Sequence,
                           values: Sequence) -> "PiecewisePolyControl":
        return cls(breakpoints, [Poly.constant(v) for v in values])

    def is_piecewise_constant(self) -> bool:
        return all(p.degree <= 0 for p in self.pieces)

    def piece_index(self, s: Fraction) -> int:
        for i in range(len(self.pieces)):
            if s <= self.breakpoints[i + 1]:
                return i
        return len(self.pieces) - 1

    def eval(self, s):
        if isinstance(s, (Fraction, int)):
            s = Fraction(s)
            i = self.piece_index(s)
            return self.pieces[i].eval(s - self.breakpoints[i])
        pieces = self.float_pieces()
        i = 0
        while i + 1 < len(pieces) and s > pieces[i][1]:
            i += 1
        left, _, coeffs = pieces[i]
        return horner(coeffs, float(s) - left)

    def float_pieces(self) -> tuple[tuple[float, float, tuple], ...]:
        """(left, right, float coefficients) for each piece, built once."""
        if self._floats is None:
            self._floats = tuple(
                (float(self.breakpoints[i]), float(self.breakpoints[i + 1]),
                 tuple(float(c) for c in poly.coeffs))
                for i, poly in enumerate(self.pieces))
        return self._floats

    def _aligned(self, other: "PiecewisePolyControl") \
            -> tuple[tuple[Fraction, ...], list[Poly], list[Poly]]:
        if self.horizon != other.horizon:
            raise ValueError("horizon mismatch")
        merged = sorted(set(self.breakpoints) | set(other.breakpoints))
        mine, theirs = [], []
        for left in merged[:-1]:
            i = self.piece_index(left) if left else 0
            while self.breakpoints[i + 1] <= left:
                i += 1
            mine.append(self.pieces[i].shift(left - self.breakpoints[i]))
            j = other.piece_index(left) if left else 0
            while other.breakpoints[j + 1] <= left:
                j += 1
            theirs.append(other.pieces[j].shift(left - other.breakpoints[j]))
        return tuple(merged), mine, theirs

    def __add__(self, other: "PiecewisePolyControl") -> "PiecewisePolyControl":
        bps, mine, theirs = self._aligned(other)
        return PiecewisePolyControl(bps, [a + b for a, b in zip(mine, theirs)])

    def __sub__(self, other: "PiecewisePolyControl") -> "PiecewisePolyControl":
        return self + other.scale(-1)

    def __mul__(self, other: "PiecewisePolyControl") -> "PiecewisePolyControl":
        bps, mine, theirs = self._aligned(other)
        return PiecewisePolyControl(bps, [a * b for a, b in zip(mine, theirs)])

    def scale(self, factor) -> "PiecewisePolyControl":
        return PiecewisePolyControl(
            self.breakpoints, [p.scale(factor) for p in self.pieces])

    def power(self, exponent: int) -> "PiecewisePolyControl":
        return PiecewisePolyControl(
            self.breakpoints, [p.power(exponent) for p in self.pieces])

    def antiderivative(self) -> "PiecewisePolyControl":
        """The primitive vanishing at 0, continuous across breakpoints."""
        pieces = []
        running = Fraction(0)
        for i, p in enumerate(self.pieces):
            prim = p.antiderivative(running)
            pieces.append(prim)
            running = prim.eval(self.breakpoints[i + 1] - self.breakpoints[i])
        return PiecewisePolyControl(self.breakpoints, pieces)

    def derivative(self) -> "PiecewisePolyControl":
        return PiecewisePolyControl(
            self.breakpoints, [p.derivative() for p in self.pieces])

    def integral(self) -> Fraction:
        """Exact integral over the full domain [0, t]."""
        return self.antiderivative().eval(self.horizon)

    def kernel_integral(self, nu: int) -> Fraction:
        """Exact value of int_0^t (t-s)^nu / nu! f(s) ds.

        Equals the (nu+1)-fold iterated primitive of f at t (Cauchy's
        repeated-integration formula).
        """
        return primitive(self, nu + 1).end_value()

    def end_value(self) -> Fraction:
        return self.eval(self.horizon)

    # ------------------------------------------------------------------
    # numeric helpers (for reports and inequality checks)

    def sample(self, n: int) -> np.ndarray:
        """The values on `np.linspace(0, t, n)`, as `eval` gives them: each
        point takes the first piece whose right end is >= it, and one Horner
        runs over the grid on that piece's coefficients."""
        grid = np.linspace(0.0, float(self.horizon), n)
        pieces = self.float_pieces()
        lefts = np.array([left for left, _, _ in pieces])
        # zero-padded (terms, pieces); one zero row at least, so the zero
        # control still gives a grid of zeros
        table = np.zeros((max(1, *(len(c) for *_, c in pieces)), len(pieces)))
        for p, (_, _, coeffs) in enumerate(pieces):
            table[:len(coeffs), p] = coeffs
        idx = np.searchsorted(lefts[1:], grid, side="left")
        return horner(table[:, idx], grid - lefts[idx])

    def sup_norm(self) -> float:
        """max |f| over [0, t], from below: |f| at both ends of every piece
        and at the real parts of the roots of its derivative, clipped to the
        piece.  Every candidate lies in its piece, so the result never
        exceeds the true sup, and it reaches it up to rounding."""
        best = 0.0
        for left, right, coeffs in self.float_pieces():
            width = right - left
            slope = [i * c for i, c in enumerate(coeffs)][1:]
            roots = np.roots(slope[::-1]).real
            at = np.concatenate(([0.0, width], np.clip(roots, 0.0, width)))
            best = max(best, float(np.abs(horner(coeffs, at)).max()))
        return best

    def abs_power_integral(self, exponent: float, n: int = 4097) -> float:
        """Numeric int |f|^exponent via composite Simpson on each piece:
        about n points over [0, t], at least 9 per piece, and one Horner
        over each piece's grid."""
        total = 0.0
        for a, b, coeffs in self.float_pieces():
            m = max(8, int(n * (b - a) / float(self.horizon)))
            m += m % 2
            xs = np.linspace(0.0, b - a, m + 1)
            f = np.broadcast_to(horner(coeffs, xs), xs.shape)  # zero piece
            ys = np.abs(f) ** exponent
            h = (b - a) / m
            total += h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum()
                              + 2 * ys[2:-1:2].sum())
        return float(total)

    def lp_norm(self, p: float, n: int = 4097) -> float:
        if p == float("inf"):
            return self.sup_norm()
        return self.abs_power_integral(p, n) ** (1.0 / p)

    def even_power_integral(self, exponent: int) -> Fraction:
        """Exact int f^exponent for even exponent (|f|^p = f^p)."""
        if exponent % 2:
            raise ValueError("exact path needs an even exponent")
        return self.power(exponent).integral()

    def to_json_dict(self) -> dict:
        return {
            "type": "piecewise_poly",
            "t": str(self.horizon),
            "breakpoints": [str(b) for b in self.breakpoints],
            "pieces": [[str(c) for c in p.coeffs] or ["0"]
                       for p in self.pieces],
        }


class SampledControl:
    """Float samples on the uniform grid over [0, t] (n >= 2 points)."""

    __slots__ = ("horizon", "values", "_coarse", "_grid", "__weakref__")

    def __init__(self, t: float, values: Sequence[float]):
        self.horizon = float(t)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need a 1-d array of >= 2 samples")
        self._coarse = None
        self._grid = None

    @property
    def step(self) -> float:
        return self.horizon / (self.values.size - 1)

    @property
    def grid(self) -> np.ndarray:
        """The sample times, built on first use and kept."""
        if self._grid is None:
            self._grid = np.linspace(0.0, self.horizon, self.values.size)
        return self._grid

    def eval(self, s: float) -> float:
        return float(np.interp(s, self.grid, self.values))

    def __mul__(self, other: "SampledControl") -> "SampledControl":
        if (self.horizon, self.values.size) != (other.horizon,
                                                other.values.size):
            raise ValueError("grid mismatch")
        return SampledControl(self.horizon, self.values * other.values)

    def scale(self, factor) -> "SampledControl":
        """Multiply by the numerator, then divide by the denominator, so a
        factor 1/n is the one float division by n."""
        factor = Fraction(factor)
        return SampledControl(
            self.horizon, self.values * factor.numerator / factor.denominator)

    def power(self, exponent: int) -> "SampledControl":
        return SampledControl(self.horizon, self.values ** exponent)

    def antiderivative(self) -> "SampledControl":
        """Cumulative trapezoid primitive on the same grid."""
        v = self.values
        h = self.step
        out = np.concatenate(([0.0], np.cumsum((v[1:] + v[:-1]) * (h / 2))))
        return SampledControl(self.horizon, out)

    def end_value(self) -> float:
        return float(self.values[-1])

    def coarsened(self) -> "SampledControl":
        """The half grid, built once: the same object on every call, so the
        coordinate memo serves its paths too."""
        if self.values.size < 5:
            raise ValueError("grid too small to coarsen")
        if self._coarse is None:
            self._coarse = SampledControl(self.horizon, self.values[::2])
        return self._coarse

    def to_json_dict(self) -> dict:
        return {"type": "samples", "t": self.horizon,
                "values": [float(v) for v in self.values]}


ControlSignal = Union[PiecewisePolyControl, SampledControl]


def primitive(u: ControlSignal, j: int) -> ControlSignal:
    """The j-th iterated primitive (j = 0 returns u itself)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    out = u
    for _ in range(j):
        out = out.antiderivative()
    return out


def control_from_json_dict(data: dict) -> ControlSignal:
    kind = data.get("type")
    if kind == "piecewise_poly":
        bps = [Fraction(b) for b in data["breakpoints"]]
        if "t" in data and Fraction(data["t"]) != bps[-1]:
            raise ValueError("'t' disagrees with the final breakpoint")
        pieces = [Poly([Fraction(c) for c in coeffs])
                  for coeffs in data["pieces"]]
        return PiecewisePolyControl(bps, pieces)
    if kind == "samples":
        return SampledControl(float(data["t"]), data["values"])
    raise ValueError(f"unknown control type {kind!r}")


def load_control(path: str) -> ControlSignal:
    with open(path) as fh:
        return control_from_json_dict(json.load(fh))
