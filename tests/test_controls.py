import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly_control
from lietool.controls import (PiecewisePolyControl, Poly, SampledControl,
                              control_from_json_dict, primitive)


class TestPoly:
    def test_arithmetic(self):
        p = Poly((1, 2))            # 1 + 2x
        q = Poly((0, 0, 3))         # 3x^2
        assert (p + q).coeffs == (1, 2, 3)
        assert (p * p).coeffs == (1, 4, 4)
        assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)

    def test_power_equals_repeated_products(self):
        for p in (Poly((Fraction(1, 3), -2, Fraction(5, 4))), Poly((0, 1)),
                  Poly()):
            expected = Poly((1,))
            for exponent in range(9):
                assert p.power(exponent) == expected
                expected = expected * p

    def test_coefficients_are_fractions(self):
        p = Poly((1, 2.5, Fraction(1, 3), 0))
        assert p.coeffs == (1, Fraction(5, 2), Fraction(1, 3))
        assert all(type(c) is Fraction for c in p.coeffs)

    def test_antiderivative_and_derivative(self):
        p = Poly((0, 0, 3))
        assert p.antiderivative().coeffs == (0, 0, 0, 1)
        assert p.antiderivative(5).coeffs[0] == 5
        assert p.antiderivative().derivative() == p

    def test_shift_exact(self):
        p = Poly((1, -2, 3))
        delta = Fraction(2, 3)
        shifted = p.shift(delta)
        for x in (Fraction(0), Fraction(1, 7), Fraction(-3, 5)):
            assert shifted.eval(x) == p.eval(x + delta)

    def test_eval_modes(self):
        p = Poly((Fraction(1, 3), 1))
        assert p.eval(Fraction(2, 3)) == Fraction(1)
        assert abs(p.eval(2 / 3) - 1.0) < 1e-12


class TestPiecewise:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePolyControl((0,), ())
        with pytest.raises(ValueError):
            PiecewisePolyControl((0, 1, 1), (Poly((1,)), Poly((1,))))
        with pytest.raises(ValueError):
            PiecewisePolyControl((Fraction(1, 2), 1), (Poly((1,)),))

    def test_eval_local_variable(self):
        u = PiecewisePolyControl((0, Fraction(1, 2), 1),
                                 (Poly((0, 1)), Poly((5,))))
        assert u.eval(Fraction(1, 4)) == Fraction(1, 4)
        assert u.eval(Fraction(3, 4)) == 5

    def test_antiderivative_is_continuous(self, rng):
        for _ in range(20):
            u = random_poly_control(rng)
            v = u.antiderivative()
            for b in u.breakpoints[1:-1]:
                eps = Fraction(1, 10 ** 8)
                left = v.eval(b - eps)
                right = v.eval(b + eps)
                assert abs(left - right) < Fraction(1, 10 ** 6)

    def test_product_alignment(self):
        a = PiecewisePolyControl((0, Fraction(1, 2), 1),
                                 (Poly((1,)), Poly((2,))))
        b = PiecewisePolyControl((0, Fraction(1, 3), 1),
                                 (Poly((3,)), Poly((4,))))
        prod = a * b
        assert prod.eval(Fraction(1, 4)) == 3
        assert prod.eval(Fraction(2, 5)) == 4
        assert prod.eval(Fraction(3, 4)) == 8
        assert prod.integral() == a.integral() * 0 + (
            Fraction(1, 3) * 3 + Fraction(1, 6) * 4 + Fraction(1, 2) * 8)

    def test_kernel_integral_matches_direct(self, rng):
        # int_0^t (t-s)^nu/nu! f = (nu+1)-fold primitive at t
        import math
        for _ in range(10):
            u = random_poly_control(rng)
            for nu in range(3):
                direct = Fraction(0)
                # Riemann check is sloppy; use the polynomial identity on
                # each piece via expanded kernel instead
                t = u.horizon
                kernel_value = u.kernel_integral(nu)
                # independent evaluation: expand (t-s)^nu via binomial
                total = Fraction(0)
                for i, p in enumerate(u.pieces):
                    left = u.breakpoints[i]
                    width = u.breakpoints[i + 1] - left
                    # integrate (t - left - x)^nu * p(x) dx for x in [0,width]
                    comb = Poly((t - left, -1))
                    kern = Poly((1,))
                    for _ in range(nu):
                        kern = kern * comb
                    integrand = (kern * p).antiderivative()
                    total += integrand.eval(width)
                assert kernel_value == total / math.factorial(nu)

    def test_exact_eval_outside_the_domain_is_refused(self):
        u = PiecewisePolyControl((0, Fraction(1, 2), 1),
                                 (Poly((1, 2)), Poly((3,))))
        assert u.eval(0) == 1 and u.eval(1) == 3
        for s in (3, -1, Fraction(-1, 10 ** 9), Fraction(1001, 1000)):
            with pytest.raises(ValueError, match="outside"):
                u.eval(s)
        # floats stay lenient: RK4 stage times can round past the horizon
        assert u.eval(1.0 + 1e-12) == 3.0 and u.eval(-1e-12) == 1.0 - 2e-12

    def test_negative_kernel_order_is_refused(self):
        u = PiecewisePolyControl.constant(1, 1)
        assert u.kernel_integral(0) == 1
        with pytest.raises(ValueError, match="nu"):
            u.kernel_integral(-1)

    def test_even_power_integral_exact(self):
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 2), 1), (2, -2))
        assert u.even_power_integral(2) == 4
        # u1 is a tent of height 1 at 1/2: int u1^2 = 2 * (1/3) * (1/2)
        assert u.antiderivative().even_power_integral(2) == Fraction(1, 3)

    def test_numeric_norms(self):
        u = PiecewisePolyControl.constant(3, 1)
        assert abs(u.sup_norm() - 3) < 1e-12
        assert abs(u.lp_norm(2.0) - 3) < 1e-9
        assert abs(u.lp_norm(float("inf")) - 3) < 1e-12


def _float_eval(poly: Poly, x: float) -> float:
    """Per-point float Horner, one coefficient converted at a time."""
    acc = 0.0
    for c in reversed(poly.coeffs):
        acc = acc * x + float(c)
    return acc


def _reference_sample(u: PiecewisePolyControl, n: int) -> np.ndarray:
    """One point at a time: the first piece whose right end is >= s."""
    fb = [float(b) for b in u.breakpoints]
    out = []
    for s in np.linspace(0.0, float(u.horizon), n):
        i = 0
        while i + 1 < len(u.pieces) and s > fb[i + 1]:
            i += 1
        out.append(_float_eval(u.pieces[i], float(s) - fb[i]))
    return np.array(out)


def _reference_abs_power_integral(u: PiecewisePolyControl, exponent,
                                  n: int = 4097) -> float:
    """Composite Simpson per piece, one point at a time."""
    total = 0.0
    for i, p in enumerate(u.pieces):
        a = float(u.breakpoints[i])
        b = float(u.breakpoints[i + 1])
        m = max(8, int(n * (b - a) / float(u.horizon)))
        m += m % 2
        xs = np.linspace(0.0, b - a, m + 1)
        ys = np.abs([_float_eval(p, x) for x in xs]) ** exponent
        h = (b - a) / m
        total += h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum()
                          + 2 * ys[2:-1:2].sum())
    return float(total)


EXPONENTS = (1, 1.0, 2.0, 3, 5, 7)
QUARTER = Fraction(1, 4)


def _norm_cases():
    rng = random.Random(8)
    cases = [random_poly_control(rng, max_pieces=4, max_degree=3)
             for _ in range(6)]
    cases += [primitive(u, 2) for u in cases[:3]]
    cases += [
        PiecewisePolyControl((0, 1), (Poly(),)),
        PiecewisePolyControl((0, QUARTER, 1), (Poly(), Poly())),
        PiecewisePolyControl((0, QUARTER, Fraction(2, 3), 1),
                             (Poly((2,)), Poly(), Poly((0, -1, 3)))),
        PiecewisePolyControl.piecewise_constant((0, QUARTER, 1),
                                                (-3, Fraction(1, 3))),
        PiecewisePolyControl((0, QUARTER, Fraction(3, 2)),
                             (Poly((1, -5, 2)), Poly((-1, 0, 0, 4)))),
    ]
    return cases


class TestVectorizedNorms:
    """`sample` and `abs_power_integral` equal the per-point loops above
    bit for bit."""

    @pytest.mark.parametrize("u", _norm_cases())
    @pytest.mark.parametrize("n", (2, 257, 4097))
    def test_sample_matches_pointwise(self, u, n):
        values = u.sample(n)
        expected = _reference_sample(u, n)
        assert values.shape == (n,)
        assert values.tobytes() == expected.tobytes()
        grid = np.linspace(0.0, float(u.horizon), n)
        assert [u.eval(float(s)) for s in grid[::64]] == list(expected[::64])

    def test_grid_point_on_a_breakpoint(self):
        u = PiecewisePolyControl((0, QUARTER, 1),
                                 (Poly((1, 4)), Poly((-7, 0, 2))))
        grid = np.linspace(0.0, 1.0, 4097)
        assert grid[1024] == 0.25
        values = u.sample(4097)
        assert values[1024] == 2.0          # the left piece's right end
        assert values[1025] == -7 + 2 * (grid[1025] - 0.25) ** 2
        assert values.tobytes() == _reference_sample(u, 4097).tobytes()

    @pytest.mark.parametrize("u", _norm_cases())
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_abs_power_integral_matches_pointwise(self, u, exponent):
        assert u.abs_power_integral(exponent) \
            == _reference_abs_power_integral(u, exponent)
        assert u.abs_power_integral(exponent, 65) \
            == _reference_abs_power_integral(u, exponent, 65)


class TestSupNorm:
    def test_interior_maximum(self):
        u = PiecewisePolyControl((0, 1), (Poly((0, 1, 0, -1)),))  # s - s^3
        exact = 2 / (3 * math.sqrt(3))
        assert abs(u.sup_norm() - exact) <= 1e-15 * exact
        assert u.lp_norm(float("inf")) == u.sup_norm()

    @pytest.mark.parametrize("sign", (1, -1))
    def test_sup_at_a_breakpoint(self, sign):
        # 3s rises to 1 at s = 1/3, where the second piece drops to 1/2:
        # the sup is the first piece's end value, at no grid point
        u = PiecewisePolyControl((0, Fraction(1, 3), 1),
                                 (Poly((0, 3 * sign)), Poly((sign / 2,))))
        assert abs(u.sup_norm() - 1.0) <= 1e-15
        assert np.abs(u.sample(4097)).max() < 1.0 - 1e-5

    def test_zero_control(self):
        assert PiecewisePolyControl((0, 1), (Poly(),)).sup_norm() == 0.0
        zero = PiecewisePolyControl((0, QUARTER, 1), (Poly(), Poly()))
        assert zero.sup_norm() == 0.0

    def test_never_below_a_sample(self, rng):
        for _ in range(20):
            u = primitive(random_poly_control(rng, max_degree=3),
                          rng.randint(0, 2))
            sup = u.sup_norm()
            assert sup >= np.abs(u.sample(4097)).max() * (1 - 1e-15)


class TestPrimitives:
    def test_constant_one(self):
        u = PiecewisePolyControl.constant(1, 1)
        assert primitive(u, 1).eval(Fraction(1, 3)) == Fraction(1, 3)
        assert primitive(u, 2).eval(Fraction(1, 2)) == Fraction(1, 8)
        assert primitive(u, 2).end_value() == Fraction(1, 2)

    def test_sign_flip_cancels(self):
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 2), 1), (1, -1))
        assert primitive(u, 1).end_value() == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            primitive(PiecewisePolyControl.constant(1, 1), -1)


class TestSampled:
    def test_cumulative_trapezoid(self):
        u = SampledControl(1.0, np.ones(11))
        v = u.antiderivative()
        assert abs(v.values[-1] - 1.0) < 1e-12

    def test_recursion_operations(self):
        u = SampledControl(2.0, [1.0, 2.0, 3.0])
        assert list((u * u).values) == [1.0, 4.0, 9.0]
        assert list(u.power(0).values) == [1.0, 1.0, 1.0]
        assert list(u.power(3).values) == [1.0, 8.0, 27.0]
        # numerator first, then denominator: 5 / 6, not 5 * float(1/6)
        five = SampledControl(1.0, [5.0, 5.0])
        assert five.scale(Fraction(1, 6)).values[0] == 5 / 6 != 5 * (1 / 6)
        assert list(u.scale(Fraction(2, 3)).values) == [2 / 3, 4 / 3, 2.0]
        assert u.antiderivative().end_value() == 4.0
        with pytest.raises(ValueError):
            u * SampledControl(1.0, [1.0, 2.0, 3.0])

    def test_coarsen(self):
        u = SampledControl(1.0, np.linspace(0, 1, 9))
        assert u.coarsened().values.size == 5

    @pytest.mark.parametrize("count", [2, 3, 4, 6, 10])
    def test_no_half_grid_is_refused(self, count):
        # values[::2] of an even count ends short of the horizon
        u = SampledControl(1.0, np.linspace(0, 1, count))
        with pytest.raises(ValueError, match=f"odd count of at least 5 "
                                             f"samples, got {count}$"):
            u.coarsened()

    @pytest.mark.parametrize("t, values, named", [
        (1.0, [0.0, "inf", 1.0], "sample 1 is not finite: inf"),
        (1.0, [0.0, 1.0, float("nan")], "sample 2 is not finite: nan"),
        (-1.0, [0.0, 1.0], "-1.0"),
        (0.0, [0.0, 1.0], "0.0"),
        ("inf", [0.0, 1.0], "inf")])
    def test_non_finite_samples_and_bad_horizon_refused(self, t, values,
                                                        named):
        with pytest.raises(ValueError) as info:
            control_from_json_dict({"type": "samples", "t": t,
                                    "values": values})
        assert named in str(info.value)


class TestJson:
    def test_round_trip_piecewise(self):
        data = {"t": "1", "type": "piecewise_poly",
                "breakpoints": ["0", "1/2", "1"],
                "pieces": [["1"], ["-1"]]}
        u = control_from_json_dict(data)
        assert u.eval(Fraction(1, 4)) == 1
        assert u.eval(Fraction(3, 4)) == -1
        again = control_from_json_dict(json.loads(json.dumps(u.to_json_dict())))
        assert again.breakpoints == u.breakpoints
        assert again.pieces == u.pieces

    def test_bad_horizon_detected(self):
        data = {"t": "2", "type": "piecewise_poly",
                "breakpoints": ["0", "1"], "pieces": [["1"]]}
        with pytest.raises(ValueError):
            control_from_json_dict(data)

    def test_samples(self):
        u = control_from_json_dict(
            {"type": "samples", "t": 1.0, "values": [0.0, 1.0, 0.0]})
        assert isinstance(u, SampledControl)


# ---------------------------------------------------------------------------
# the integer representation against a plain-Fraction reference

def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_eval(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_shift(cs, delta):
    out = [Fraction(0)] * len(cs)
    for i, c in enumerate(cs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * delta ** (i - j)
    return _trim(out)


class _Ref:
    """A piecewise polynomial as Fraction breakpoints and Fraction
    coefficient lists, with the textbook operations."""

    def __init__(self, bps, pieces):
        self.bps = [Fraction(b) for b in bps]
        self.pieces = [_trim(Fraction(c) for c in cs) for cs in pieces]

    def control(self):
        return PiecewisePolyControl(self.bps, [Poly(cs) for cs in self.pieces])

    def _split(self, merged):
        out, i = [], 0
        for left in merged[:-1]:
            while self.bps[i + 1] <= left:
                i += 1
            out.append(_ref_shift(self.pieces[i], left - self.bps[i]))
        return out

    def combine(self, other, op):
        merged = sorted(set(self.bps) | set(other.bps))
        return _Ref(merged, [op(a, b) for a, b in zip(self._split(merged),
                                                       other._split(merged))])

    def map(self, op):
        return _Ref(self.bps, [op(cs) for cs in self.pieces])

    def antiderivative(self):
        pieces, running = [], Fraction(0)
        for i, cs in enumerate(self.pieces):
            prim = _trim([running] + [c / (k + 1) for k, c in enumerate(cs)])
            running = _ref_eval(prim, self.bps[i + 1] - self.bps[i])
            pieces.append(prim)
        return _Ref(self.bps, pieces)

    def end_value(self):
        return _ref_eval(self.pieces[-1], self.bps[-1] - self.bps[-2])


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _assert_matches(u: PiecewisePolyControl, ref: _Ref):
    assert u.breakpoints == tuple(ref.bps)
    assert all(type(b) is Fraction for b in u.breakpoints)
    assert [p.coeffs for p in u.pieces] == [tuple(cs) for cs in ref.pieces]
    for p in u.pieces:
        assert all(type(c) is Fraction for c in p.coeffs)
        # canonical: no trailing zero, one positive denominator, one gcd
        assert p.den > 0 and (not p.nums or p.nums[-1])
        assert math.gcd(p.den, *p.nums) == 1
    floats = [(float(ref.bps[i]).hex(), float(ref.bps[i + 1]).hex(),
               [float(c).hex() for c in cs]) for i, cs in enumerate(ref.pieces)]
    assert [(left.hex(), right.hex(), [c.hex() for c in cs])
            for left, right, cs in u.float_pieces()] == floats


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_PIECE = st.one_of(st.just([]), st.lists(_COEFF, min_size=1, max_size=4))
_CUT = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(
    lambda c: 0 < c < 1)


@st.composite
def _ref_pair(draw):
    horizon = draw(st.fractions(min_value=Fraction(1, 3), max_value=3,
                                max_denominator=4))
    refs = []
    for _ in range(2):
        cuts = sorted(draw(st.sets(_CUT, max_size=3)))
        bps = [Fraction(0), *(horizon * c for c in cuts), horizon]
        refs.append(_Ref(bps, draw(st.lists(_PIECE, min_size=len(bps) - 1,
                                            max_size=len(bps) - 1))))
    return refs


@settings(max_examples=60, deadline=None)
@given(_ref_pair(), _COEFF, st.fractions(min_value=-2, max_value=2,
                                         max_denominator=7))
def test_integer_representation_matches_fraction_reference(pair, factor,
                                                           delta):
    ref_u, ref_v = pair
    u, v = ref_u.control(), ref_v.control()
    _assert_matches(u, ref_u)
    _assert_matches(u + v, ref_u.combine(ref_v, _ref_add))
    _assert_matches(u - v, ref_u.combine(
        ref_v, lambda a, b: _ref_add(a, [-c for c in b])))
    _assert_matches(u * v, ref_u.combine(ref_v, _ref_mul))
    power = _Ref(ref_u.bps, [[Fraction(1)]] * len(ref_u.pieces))
    for exponent in range(5):
        _assert_matches(u.power(exponent), power)
        power = power.combine(ref_u, _ref_mul)
    _assert_matches(u.scale(factor),
                    ref_u.map(lambda cs: _trim(c * factor for c in cs)))
    _assert_matches(u.derivative(), ref_u.map(
        lambda cs: [c * k for k, c in enumerate(cs)][1:]))
    for p, cs in zip(u.pieces, ref_u.pieces):
        assert p.shift(delta).coeffs == tuple(_ref_shift(cs, delta))
        assert p.eval(delta) == _ref_eval(cs, delta)
    prim = ref_u
    for nu in range(3):
        prim = prim.antiderivative()
        _assert_matches(primitive(u, nu + 1), prim)
        assert u.kernel_integral(nu) == prim.end_value()
        if nu == 0:
            assert u.integral() == prim.end_value()
    assert u.end_value() == ref_u.end_value()
    assert u.eval(u.horizon) == ref_u.end_value()
    data = json.loads(json.dumps(u.to_json_dict()))
    assert data["pieces"] == [[str(c) for c in cs] or ["0"]
                              for cs in ref_u.pieces]
    _assert_matches(control_from_json_dict(data), ref_u)
