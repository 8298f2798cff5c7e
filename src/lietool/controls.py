"""Control signals on [0, t]: exact piecewise polynomials and float samples.

The exact backbone is :class:`PiecewisePolyControl`: rational breakpoints with
one polynomial per piece, written in the local variable (s - left endpoint).
Each piece is a :class:`Poly`, held as integer numerators over one positive
denominator and reduced by one gcd per operation, and each piece width is kept
as an integer pair (p, q), so every exact operation runs on Python ints.  The
class is closed under the operations the coordinate machinery needs: sums,
products, antidifferentiation (continuous across breakpoints, the running
constant carried by a homogeneous integer Horner at the width), exact definite
integrals, and the kernel integrals int_0^t (t-s)^nu/nu! f(s) ds (done as
iterated antiderivatives).  Operands with the same breakpoints combine piece
by piece; others are first split onto the union of the breakpoints.  Its float
side (RK4, sampling, norms) reads the float coefficient table
:meth:`PiecewisePolyControl.float_pieces`, built once per control, through one
float Horner, :func:`horner`, at a point or over a whole grid.

:class:`SampledControl` holds finite float values on a uniform grid and has the
operations the coordinate recursion calls (products, powers, scaling, the
trapezoid antiderivative, the end value), so one recursion serves both
control types; a sampled value carries a Richardson error estimate against
the half grid.  Every iterated primitive of either type is :func:`primitive`;
:func:`primitives` shares one chain of them between several orders.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Sequence, Union

import numpy as np

from .exact_linalg import clear_denominators


def horner(coeffs, x):
    """`Poly.eval`'s float Horner on ascending float coefficients, highest
    first from 0.0.  x and the coefficients are floats or arrays that
    broadcast together; no coefficients give the scalar 0.0."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@functools.cache
def _primitive_factors(n: int) -> tuple[int, tuple[int, ...]]:
    """(L, (L/1, ..., L/n)) with L = lcm(1, ..., n): the primitive of n
    numerators over den is (c_i L/(i+1)) over den L."""
    lcm = math.lcm(*range(1, n + 1))
    return lcm, tuple(lcm // i for i in range(1, n + 1))


def _reduced(nums: Sequence[int], den: int) -> "Poly":
    """The Poly nums / den (den > 0): trailing zeros trimmed, then numerators
    and denominator divided by their one gcd."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    g = gcd(den, *nums[:n])         # den itself when every numerator is 0
    out = object.__new__(Poly)
    out.nums, out.den = tuple(c // g for c in nums[:n]), den // g
    return out


class Poly:
    """Dense univariate polynomial with rational coefficients, ascending.

    The coefficients are `nums[i] / den`: a tuple of integer numerators with
    no trailing zero and one positive denominator sharing no factor with all
    of them, so equal polynomials have equal fields (the zero polynomial is
    `()` over 1).  The constructor takes int, Fraction, float (converted
    exactly) or anything else `Fraction` accepts.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence = ()):  # trailing zeros trimmed
        reduced = _reduced(*clear_denominators(coeffs))
        self.nums, self.den = reduced.nums, reduced.den

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nums == other.nums
                and self.den == other.den)

    def __add__(self, other: "Poly") -> "Poly":
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            g = gcd(den, other.den)
            a = [c * (other.den // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * other.den
        if len(a) < len(b):
            a, b = b, a
        return _reduced([x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        return _reduced(_convolve(self.nums, other.nums),
                        self.den * other.den)

    def scale(self, factor) -> "Poly":
        if type(factor) is not Fraction:
            factor = Fraction(factor)
        return _reduced([c * factor.numerator for c in self.nums],
                        self.den * factor.denominator)

    def power(self, exponent: int) -> "Poly":
        """self^exponent by repeated squaring of the numerators; by Gauss's
        lemma the content of nums^k is content(nums)^k, prime to den^k, so
        the result needs no gcd."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        if exponent == 0:
            return _ONE
        if exponent == 1:
            return self
        out, base, k = [1], self.nums, exponent
        while k:
            if k & 1:
                out = _convolve(out, base)
            k >>= 1
            if k:
                base = _convolve(base, base)
        result = object.__new__(Poly)
        result.nums, result.den = tuple(out), self.den ** exponent
        return result

    def antiderivative(self, constant=0) -> "Poly":
        constant = Fraction(constant)
        return self._primitive(constant.numerator, constant.denominator)

    def _primitive(self, a: int, b: int) -> "Poly":
        """The antiderivative with constant term a / b (b > 0)."""
        lcm, factors = _primitive_factors(len(self.nums))
        den = self.den * lcm
        spread = b // gcd(den, b)      # den * spread = lcm(den, b)
        den *= spread
        nums = [a * (den // b)]
        nums.extend(c * f * spread for c, f in zip(self.nums, factors))
        return _reduced(nums, den)

    def derivative(self) -> "Poly":
        return _reduced([c * i for i, c in enumerate(self.nums)][1:], self.den)

    def shift(self, delta) -> "Poly":
        """Compose with (x + delta): p(x + delta), exact.  With delta = p/q and
        degree n, numerator j over den q^n is
        sum_i nums[i] C(i, j) p^(i-j) q^(n-i+j)."""
        delta = Fraction(delta)
        if not delta or not self.nums:
            return self
        p, q = delta.numerator, delta.denominator
        n = len(self.nums) - 1
        ppow = [p ** k for k in range(n + 1)]
        qpow = [q ** k for k in range(n + 1)]
        out = [0] * (n + 1)
        for i, c in enumerate(self.nums):
            if c:
                for j in range(i + 1):
                    out[j] += c * comb(i, j) * ppow[i - j] * qpow[n - i + j]
        return _reduced(out, self.den * qpow[n])

    def _value(self, p: int, q: int) -> tuple[int, int]:
        """The value at p/q (q > 0) as a reduced pair (numerator,
        denominator), by a homogeneous integer Horner."""
        acc, qk = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        den = self.den * q ** max(0, len(self.nums) - 1)
        g = gcd(acc, den)
        return acc // g, den // g

    def eval(self, x):
        """Horner evaluation; exact for Fraction/int, float for float input."""
        if not isinstance(x, (Fraction, int)):
            return horner(self.float_coeffs(), x)
        x = Fraction(x)
        return Fraction(*self._value(x.numerator, x.denominator))

    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients as floats; int / int is correctly rounded, so
        each equals float() of its Fraction."""
        return tuple(c / self.den for c in self.nums)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


_ONE = Poly((1,))


class PiecewisePolyControl:
    """Piecewise polynomial on [0, t] with exact rational data.

    Pieces are polynomials in the local variable (s - breakpoints[i]) on
    [breakpoints[i], breakpoints[i+1]].  The represented function is the
    left-continuous union of the pieces: `eval`, `piece_index` and `sample`
    give an interior breakpoint to the piece on its left (only integrals and
    pointwise values matter here, so the convention is immaterial).
    """

    __slots__ = ("breakpoints", "pieces", "_widths", "_floats", "__weakref__")

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
        self._widths = _widths(self.breakpoints)
        self._floats = None

    def _derived(self, pieces, breakpoints=None) -> "PiecewisePolyControl":
        """A control built from checked parts, by default on self's
        breakpoints: no validation, no re-wrapping."""
        out = object.__new__(PiecewisePolyControl)
        if breakpoints is None:
            out.breakpoints, out._widths = self.breakpoints, self._widths
        else:
            out.breakpoints, out._widths = breakpoints, _widths(breakpoints)
        out.pieces = tuple(pieces)
        out._floats = None
        return out

    @classmethod
    def _on_grid(cls, numerators: Sequence[int], den: int,
                 pieces: Sequence[Poly]) -> "PiecewisePolyControl":
        """The control with breakpoints n / den for the strictly increasing
        integers `numerators`, the first 0, and one Poly per piece: widths
        from integer differences, no validation."""
        out = object.__new__(cls)
        out.breakpoints = tuple(Fraction(n, den) for n in numerators)
        widths = []
        for left, right in zip(numerators, numerators[1:]):
            g = gcd(right - left, den)
            widths.append(((right - left) // g, den // g))
        out._widths = tuple(widths)
        out.pieces = tuple(pieces)
        out._floats = None
        return out

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
        """The value at s: exact for Fraction/int s, which must lie in
        [0, t]; a float s is evaluated leniently past the ends."""
        if isinstance(s, (Fraction, int)):
            s = Fraction(s)
            if not 0 <= s <= self.horizon:
                raise ValueError(f"s = {s} lies outside [0, {self.horizon}]")
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
                 poly.float_coeffs())
                for i, poly in enumerate(self.pieces))
        return self._floats

    def _split(self, merged: Sequence[Fraction]) -> list[Poly]:
        """The pieces on `merged`, a refinement of the breakpoints."""
        out, i = [], 0
        for left in merged[:-1]:
            while self.breakpoints[i + 1] <= left:
                i += 1
            out.append(self.pieces[i].shift(left - self.breakpoints[i]))
        return out

    def _combine(self, other: "PiecewisePolyControl", op) \
            -> "PiecewisePolyControl":
        """op piece by piece: directly on shared breakpoints, else after
        splitting both operands onto the union of their breakpoints."""
        if self.breakpoints == other.breakpoints:
            return self._derived(map(op, self.pieces, other.pieces))
        if self.horizon != other.horizon:
            raise ValueError("horizon mismatch")
        merged = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        return self._derived(map(op, self._split(merged), other._split(merged)),
                             merged)

    def __add__(self, other: "PiecewisePolyControl") -> "PiecewisePolyControl":
        return self._combine(other, Poly.__add__)

    def __sub__(self, other: "PiecewisePolyControl") -> "PiecewisePolyControl":
        return self._combine(other, Poly.__sub__)

    def __mul__(self, other: "PiecewisePolyControl") -> "PiecewisePolyControl":
        return self._combine(other, Poly.__mul__)

    def scale(self, factor) -> "PiecewisePolyControl":
        return self._derived(p.scale(factor) for p in self.pieces)

    def power(self, exponent: int) -> "PiecewisePolyControl":
        return self._derived(p.power(exponent) for p in self.pieces)

    def antiderivative(self) -> "PiecewisePolyControl":
        """The primitive vanishing at 0, continuous across breakpoints: each
        piece starts from the previous one's value at its width."""
        pieces = []
        a, b = 0, 1
        for poly, (p, q) in zip(self.pieces, self._widths):
            prim = poly._primitive(a, b)
            a, b = prim._value(p, q)
            pieces.append(prim)
        return self._derived(pieces)

    def derivative(self) -> "PiecewisePolyControl":
        return self._derived(p.derivative() for p in self.pieces)

    def integral(self) -> Fraction:
        """Exact integral over the full domain [0, t]."""
        return self.antiderivative().end_value()

    def kernel_integral(self, nu: int) -> Fraction:
        """Exact value of int_0^t (t-s)^nu / nu! f(s) ds, for nu >= 0.

        Equals the (nu+1)-fold iterated primitive of f at t (Cauchy's
        repeated-integration formula).
        """
        if nu < 0:
            raise ValueError(f"kernel order nu must be >= 0, got {nu}")
        return primitive(self, nu + 1).end_value()

    def end_value(self) -> Fraction:
        return Fraction(*self.pieces[-1]._value(*self._widths[-1]))

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


def _widths(breakpoints: Sequence[Fraction]) -> tuple[tuple[int, int], ...]:
    """Each piece's width as a reduced integer pair (p, q), q > 0."""
    return tuple(((b - a).numerator, (b - a).denominator)
                 for a, b in zip(breakpoints, breakpoints[1:]))


class SampledControl:
    """Finite float samples on the uniform grid over [0, t] (t > 0, n >= 2
    points)."""

    __slots__ = ("horizon", "values", "_coarse", "_grid", "__weakref__")

    def __init__(self, t: float, values: Sequence[float]):
        horizon = float(t)
        if not (math.isfinite(horizon) and horizon > 0):
            raise ValueError(f"horizon t must be finite and > 0, got {t!r}")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("need a 1-d array of >= 2 samples")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"sample {bad[0]} is not finite: "
                             f"{float(values[bad[0]])}")
        self._set(horizon, values)

    def _set(self, horizon: float, values: np.ndarray) -> None:
        self.horizon = horizon
        self.values = values
        self._coarse = None
        self._grid = None

    def _derived(self, values: np.ndarray) -> "SampledControl":
        """New samples on the same horizon, without re-validation (float
        arithmetic on the samples may legitimately overflow)."""
        out = object.__new__(SampledControl)
        out._set(self.horizon, values)
        return out

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
        return self._derived(self.values * other.values)

    def scale(self, factor) -> "SampledControl":
        """Multiply by the numerator, then divide by the denominator, so a
        factor 1/n is the one float division by n."""
        factor = Fraction(factor)
        return self._derived(
            self.values * factor.numerator / factor.denominator)

    def power(self, exponent: int) -> "SampledControl":
        return self._derived(self.values ** exponent)

    def antiderivative(self) -> "SampledControl":
        """Cumulative trapezoid primitive on the same grid."""
        v = self.values
        h = self.step
        return self._derived(
            np.concatenate(([0.0], np.cumsum((v[1:] + v[:-1]) * (h / 2)))))

    def end_value(self) -> float:
        return float(self.values[-1])

    def coarsened(self) -> "SampledControl":
        """The half grid, built once: the same object on every call, so the
        coordinate memo serves its paths too."""
        if self.values.size < 5 or self.values.size % 2 == 0:
            raise ValueError(f"an error estimate needs an odd count of at "
                             f"least 5 samples, got {self.values.size}")
        if self._coarse is None:
            self._coarse = self._derived(self.values[::2])
        return self._coarse

    def to_json_dict(self) -> dict:
        return {"type": "samples", "t": self.horizon,
                "values": [float(v) for v in self.values]}


ControlSignal = Union[PiecewisePolyControl, SampledControl]


def primitive(u: ControlSignal, j: int) -> ControlSignal:
    """The j-th iterated primitive (j = 0 returns u itself)."""
    return primitives(u)(j)


def primitives(u: ControlSignal) -> Callable[[int], ControlSignal]:
    """j -> primitive(u, j), building each antiderivative of u once, so
    callers that need several primitives of one control share one chain."""
    chain = [u]

    def prim(j: int) -> ControlSignal:
        if j < 0:
            raise ValueError("j must be >= 0")
        while len(chain) <= j:
            chain.append(chain[-1].antiderivative())
        return chain[j]

    return prim


def _json_field(data: dict, key: str, convert):
    """convert(data[key]), a malformed value refused with a ValueError that
    names the key."""
    try:
        return convert(data[key])
    except (TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {key!r}: {exc}") from None


def control_from_json_dict(data: dict) -> ControlSignal:
    if not isinstance(data, dict):
        raise ValueError("a control is a JSON object")
    kind = data.get("type")
    if kind == "piecewise_poly":
        u = PiecewisePolyControl(
            _json_field(data, "breakpoints",
                        lambda bs: [Fraction(b) for b in bs]),
            _json_field(data, "pieces", lambda ps: [
                Poly([Fraction(c) for c in coeffs]) for coeffs in ps]))
        if "t" in data and _json_field(data, "t", Fraction) != u.horizon:
            raise ValueError("'t' disagrees with the final breakpoint")
        return u
    if kind == "samples":
        horizon = _json_field(data, "t", float)
        return SampledControl(horizon, _json_field(
            data, "values", lambda vs: np.asarray(vs, dtype=float)))
    raise ValueError(f"unknown control type {kind!r}")


def load_control(path: str) -> ControlSignal:
    with open(path) as fh:
        return control_from_json_dict(json.load(fh))
