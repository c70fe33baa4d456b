import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deadtime import core
from deadtime.core import (
    Constant,
    Cosine,
    FixedDeadTime,
    GammaDeadTime,
    NumericalError,
    Sampled,
    Spectrum,
    Step,
    TabulatedDeadTime,
    TimeGrid,
    Trace,
    angular_frequency,
    equilibrium_history,
    read_law_csv,
    signal_spectrum,
    simpson_weights,
    write_law_csv,
)


def test_time_grid_basics():
    g = TimeGrid(t0=-0.5, dt=0.25, n=5)
    assert_allclose(g.times(), [-0.5, -0.25, 0.0, 0.25, 0.5])
    assert g.t_end == pytest.approx(0.5)
    assert g.span == pytest.approx(1.25)


@pytest.mark.parametrize("n", range(2, 12))
def test_simpson_weights_exactness(n):
    # odd cell counts end on a trapezoid cell, so only linear integrands stay exact
    h, a = 0.3, -0.7
    w = simpson_weights(n, h)
    x = a + h * np.arange(n + 1)
    b = x[-1]
    assert w.sum() == pytest.approx(n * h, rel=1e-14)
    assert w @ (2.0 * x - 1.0) == pytest.approx((b * b - b) - (a * a - a), rel=1e-13)
    if n % 2 == 0:
        exact = (b**4 - a**4) / 4 - (b**3 - a**3) + (b - a)
        assert w @ (x**3 - 3.0 * x**2 + 1.0) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("bad", [dict(dt=0.0), dict(dt=-1.0), dict(n=0), dict(t0=math.nan)])
def test_time_grid_validation(bad):
    kwargs = dict(t0=0.0, dt=0.1, n=10)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        TimeGrid(**kwargs)


class TestSignals:
    def test_constant(self):
        sig = Constant(12.5)
        assert sig.rate(3.0) == 12.5
        assert_allclose(sig.rate(np.array([0.0, 1.0])), [12.5, 12.5])
        assert sig.cumulative_rate(2.0) == pytest.approx(25.0)
        assert sig.max_rate(-1.0, 1.0) == 12.5

    def test_step_is_right_continuous(self):
        sig = Step(before=5.0, after=20.0, t_switch=1.0)
        assert sig.rate(1.0 - 1e-12) == 5.0
        assert sig.rate(1.0) == 20.0
        assert sig.rate_left(1.0) == 5.0
        assert sig.rate_left(1.0 + 1e-12) == 20.0

    def test_step_cumulative(self):
        sig = Step(before=5.0, after=20.0, t_switch=1.0)
        assert sig.cumulative_rate(0.0) == 0.0
        assert sig.cumulative_rate(1.0) == pytest.approx(5.0)
        assert sig.cumulative_rate(3.0) == pytest.approx(5.0 + 40.0)
        # switch in the past still anchors the antiderivative at zero
        past = Step(before=2.0, after=8.0, t_switch=-1.0)
        assert past.cumulative_rate(0.0) == 0.0
        assert past.cumulative_rate(2.0) == pytest.approx(16.0)

    def test_step_max_rate(self):
        sig = Step(before=5.0, after=20.0, t_switch=1.0)
        assert sig.max_rate(0.0, 0.5) == 5.0
        assert sig.max_rate(1.0, 2.0) == 20.0
        assert sig.max_rate(0.0, 2.0) == 20.0

    def test_cosine(self):
        sig = Cosine(base=50.0, amplitude=45.0, frequency=2.0)
        assert sig.rate(0.0) == pytest.approx(95.0)
        assert sig.rate(0.25) == pytest.approx(5.0)
        # quarter period: integral of a*cos over [0, T/4] is a/(2 pi f) * 1
        expected = 50.0 * 0.125 + 45.0 / angular_frequency(2.0)
        assert sig.cumulative_rate(0.125) == pytest.approx(expected)

    def test_cosine_max_rate(self):
        sig = Cosine(base=10.0, amplitude=3.0, frequency=1.0)
        assert sig.max_rate(0.1, 0.4) == pytest.approx(sig.rate(0.1))
        assert sig.max_rate(0.6, 1.2) == pytest.approx(13.0)

    def test_cosine_rejects_negative_trough(self):
        with pytest.raises(ValueError):
            Cosine(base=1.0, amplitude=2.0, frequency=1.0)

    def test_cumulative_matches_quadrature(self):
        # Step is checked exactly in test_step_cumulative; trapezoid rules
        # straddling its jump are only first-order accurate
        sigs = [
            Constant(7.0),
            Cosine(base=6.0, amplitude=4.0, frequency=3.0),
        ]
        t = np.linspace(0.0, 1.0, 20001)
        for sig in sigs:
            approx = np.concatenate(
                ([0.0], np.cumsum(0.5 * (sig.rate(t)[1:] + sig.rate(t)[:-1]) * np.diff(t)))
            )
            assert_allclose(sig.cumulative_rate(t), approx, atol=5e-6)

    def test_sampled_interpolates(self):
        grid = TimeGrid(0.0, 0.5, 3)
        sig = Sampled(grid, np.array([0.0, 2.0, 1.0]))
        assert sig.rate(0.25) == pytest.approx(1.0)
        assert sig.max_rate(0.0, 1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            sig.rate(1.5)

    def test_sampled_cumulative_exact(self):
        rng = np.random.default_rng(7)
        grid = TimeGrid(0.0, 0.1, 11)
        sig = Sampled(grid, rng.uniform(0.0, 5.0, size=11))
        t = np.linspace(0.0, 1.0, 997)
        fine = np.linspace(0.0, 1.0, 200001)
        ref = np.interp(
            t,
            fine,
            np.concatenate(
                ([0.0], np.cumsum(0.5 * (sig.rate(fine)[1:] + sig.rate(fine)[:-1]) * np.diff(fine)))
            ),
        )
        assert_allclose(sig.cumulative_rate(t), ref, atol=1e-8)


class TestLaws:
    def test_fixed(self):
        law = FixedDeadTime(0.05)
        assert law.mean() == 0.05
        assert law.survivor(0.049) == 1.0
        assert law.survivor(0.05) == 0.0
        assert law.atom0 == 0.0
        assert law.quantile(0.999) == 0.05

    def test_gamma_moments_and_mass(self):
        law = GammaDeadTime(order=3, rate=50.0)
        assert law.mean() == pytest.approx(4 / 50.0)
        x = np.linspace(0.0, 1.0, 300001)
        assert np.trapezoid(law.density(x), x) == pytest.approx(1.0, abs=1e-9)
        assert np.trapezoid(x * law.density(x), x) == pytest.approx(law.mean(), abs=1e-9)

    def test_gamma_survivor_vs_density(self):
        law = GammaDeadTime(order=2, rate=25.0)
        x = np.linspace(0.1, 0.6, 100001)
        tail = np.trapezoid(law.density(x), x) + law.survivor(0.6)
        assert tail == pytest.approx(law.survivor(0.1), abs=1e-8)

    def test_gamma_density_derivative(self):
        law = GammaDeadTime(order=4, rate=40.0)
        x = np.linspace(0.01, 0.4, 57)
        h = 1e-6
        fd = (law.density(x + h) - law.density(x - h)) / (2 * h)
        assert_allclose(law.density_derivative(x), fd, rtol=1e-6, atol=1e-4)

    def test_gamma_quantile_roundtrip(self):
        law = GammaDeadTime(order=1, rate=10.0)
        for q in (0.1, 0.5, 0.99):
            x = law.quantile(q)
            assert 1.0 - law.survivor(x) == pytest.approx(q, abs=1e-12)

    def test_gamma_exponential_case(self):
        law = GammaDeadTime(order=0, rate=8.0)
        assert law.density(0.0) == pytest.approx(8.0)
        assert law.survivor(0.2) == pytest.approx(math.exp(-1.6))

    def test_gamma_tilted_integral_past_the_discount_underflow(self):
        # 60-digit mpmath, by the incomplete gamma function and by quadrature
        law = GammaDeadTime(200, 2150.713094551063)
        got = law.tilted_integral(675.4108702366457, 0.0, 0.2530732989693054, 747.1858096094052)
        assert got == pytest.approx(2.5428680946970390e-292, rel=1e-10, abs=0.0)

    def test_gamma_tilted_integral_keeps_the_bits_of_normal_discounts(self):
        law, c = GammaDeadTime(50, 400.0), 350.0
        b = np.linspace(0.05, 2.3, 46)
        got = law.tilted_integral(c, 0.0, b, c * b)
        lower = core._gamma_tail(51, (law.rate - c) * b, upper=False)
        plain = np.exp(-c * b) * (lower * (law.rate / (law.rate - c)) ** 51)
        normal = c * b <= 708.0
        assert 0 < np.count_nonzero(normal) < b.size
        np.testing.assert_array_equal(got[normal], plain[normal])
        assert np.all(got[~normal] > 0.0) and np.all(np.diff(np.log(got[~normal])) < 0.0)

    @pytest.mark.parametrize("start", ["zero", "array"])
    def test_gamma_tilted_integral_sums_the_series_only_where_the_mass_underflows(
        self, monkeypatch, start
    ):
        # order 200 at 0.6 of its rate, where the plain product serves every
        # element but those whose mass underflows: a lower tail below z = 2.2
        # and, from the array of starts, the far intervals' upper tails
        law, c = GammaDeadTime(200, 100.0), 60.0
        b = np.array([0.05, 0.1, 0.04, 1e3, 1e8, 3e10])
        a = 0.0 if start == "zero" else b / 2.0
        sizes = []
        logs = core._log_tilted

        def spy(order, rate, c, a, b, s):
            sizes.append(np.size(b))
            return logs(order, rate, c, a, b, s)

        monkeypatch.setattr(core, "_log_tilted", spy)
        got = law.tilted_integral(c, a, b, 0.0)
        assert sizes == [2 if start == "zero" else 5]
        alone = [law.tilted_integral(c, a if start == "zero" else a[k], b[k], 0.0)
                 for k in range(b.size)]
        assert got.tobytes() == np.array(alone).tobytes()
        assert np.all(got[[0, 2]] > 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        order=st.integers(0, 200),
        ratio=st.one_of(st.floats(1.0, 10.0), st.floats(1.0 - 1e-8, 1.0 + 1e-8)),
        log_width=st.floats(-6.0, 2.0),
        log_start=st.one_of(st.none(), st.floats(-2.0, 0.6)),
    )
    @example(order=10, ratio=1.0, log_width=-6.0, log_start=0.0)
    @example(order=0, ratio=1.0 + 1e-9, log_width=-6.0, log_start=None)
    @example(order=200, ratio=10.0, log_width=-6.0, log_start=0.3)
    def test_gamma_tilted_integral_at_and_above_the_rate(self, order, ratio, log_width, log_start):
        # a 50-digit mpmath reference by Kummer's function: the mass of
        # x**n exp(k x) over [0, x] is x**(n+1) M(n+1, n+2, k x)/(n+1).  The
        # interval is 10**log_width long in units of 1/|rate - c| (of the law's
        # shape (n+1)/rate at c = rate) and starts at zero or 10**log_start shapes
        import mpmath

        rate = (order + 1) / 0.08
        c = ratio * rate
        shape = (order + 1) / rate
        unit = 1.0 / abs(rate - c) if c != rate else shape
        a = 0.0 if log_start is None else 10.0**log_start * shape
        b = a + 10.0**log_width * unit
        with mpmath.workdps(50):
            n1, k = order + 1, mpmath.mpf(c) - mpmath.mpf(rate)

            def head(x):
                x = mpmath.mpf(x)
                return x**n1 * mpmath.hyp1f1(n1, n1 + 1, k * x) / n1

            want = (mpmath.mpf(rate)**n1 / mpmath.factorial(order)
                    * mpmath.exp(-mpmath.mpf(c) * mpmath.mpf(b)) * (head(b) - head(a)))
            assume(1e-300 < want)
            got = GammaDeadTime(order, rate).tilted_integral(c, a, b, c * b)
            assert float(abs(got - want) / want) <= 1e-12

    def test_tabulated_requires_unit_mass(self):
        x = np.linspace(0.0, 1.0, 200)
        with pytest.raises(ValueError):
            TabulatedDeadTime(x, np.full_like(x, 0.7))

    @pytest.mark.parametrize("x, pdf", [([0.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
                                        ([0.0, 1.0, np.inf], [1.0, 0.0, 0.0])],
                             ids=["nan-node", "inf-node"])
    def test_tabulated_rejects_non_finite_abscissae(self, x, pdf):
        # each used to construct, with NaN for its mean, survivor and quantile
        # (and for its mass, which passed the mass check)
        with pytest.raises(ValueError, match="finite"):
            TabulatedDeadTime(np.array(x), np.array(pdf))

    def test_tabulated_against_gamma(self):
        ref = GammaDeadTime(order=2, rate=30.0)
        x = np.linspace(0.0, ref.quantile(1 - 1e-13), 40001)
        pdf = ref.density(x)
        law = TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x))
        assert law.mean() == pytest.approx(ref.mean(), rel=1e-6)
        probe = np.array([0.01, 0.05, 0.1, 0.3])
        assert_allclose(law.survivor(probe), ref.survivor(probe), atol=1e-6)
        assert_allclose(law.density(probe), ref.density(probe), rtol=1e-4)
        assert law.quantile(0.5) == pytest.approx(ref.quantile(0.5), rel=1e-5)

    def test_tabulated_atom(self):
        x = np.linspace(0.0, 1.0, 2001)
        pdf = np.where(x <= 0.5, 1.2, 0.0)
        pdf = pdf * (0.4 / np.trapezoid(pdf, x))
        law = TabulatedDeadTime(x, pdf, atom_at_zero=0.6)
        assert law.atom0 == 0.6
        assert law.survivor(0.0) == pytest.approx(0.4)
        assert law.quantile(0.3) == 0.0
        assert law.survivor(0.75) == pytest.approx(0.0, abs=1e-12)

    def test_support_window_tail(self):
        law = GammaDeadTime(order=10, rate=137.5)
        w = law.support_window()
        assert law.survivor(w) == pytest.approx(1e-12, rel=1e-3)


def _log_spread(a, us):
    """Points from 1e-6 to 1e4 * a, log-uniform in ``us`` on [0, 1]."""
    return 1e-6 * (1e4 * a / 1e-6) ** np.asarray(us, dtype=float)


class TestErlangKernels:
    """The incomplete gamma functions of integer shape ``a`` and the inverse of
    the upper one, against SciPy (a test-only dependency) and mpmath."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        a=st.integers(1, 202),
        us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        near=st.lists(st.floats(-0.3, 0.3), max_size=8),
    )
    @example(a=1, us=[0.0, 0.5, 1.0], near=[0.0])
    @example(a=202, us=[0.0, 0.5, 0.6, 1.0], near=[-1e-9, 0.0, 1e-9])
    def test_tails_match_scipy(self, a, us, near):
        from scipy import special

        z = np.concatenate([_log_spread(a, us), a * np.exp(near)])
        for upper, ref in ((False, special.gammainc(a, z)), (True, special.gammaincc(a, z))):
            got = core._gamma_tail(a, z, upper)
            normal = ref >= 1e-300
            assert_allclose(got[normal], ref[normal], rtol=1e-12, atol=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        a=st.integers(1, 202),
        logs=st.lists(st.floats(-690.0, math.log(0.5)), min_size=1, max_size=16),
    )
    @example(a=1, logs=[-690.0, -36.8, math.log(0.5)])
    @example(a=202, logs=[-690.0, -36.8, -1.0, math.log(0.5)])
    def test_inverse_matches_scipy_and_round_trips(self, a, logs):
        from scipy import special

        tail = np.exp(logs)
        y = np.concatenate([tail, 1.0 - tail])
        x = core._gammainccinv(a, y)
        assert_allclose(x, special.gammainccinv(a, y), rtol=1e-13, atol=0.0)
        # the root lies within four ulps of x
        eps = 4.0 * np.finfo(float).eps
        assert np.all(core._gamma_tail(a, x * (1.0 + eps), True) <= y * (1.0 + 1e-12))
        assert np.all(core._gamma_tail(a, x * (1.0 - eps), True) >= y * (1.0 - 1e-12))

    @pytest.mark.parametrize("z", [20.1, 200.5, 402.0], ids=["far-below", "at-shape", "far-above"])
    def test_order_200_against_50_digits(self, z):
        import mpmath

        a = 201
        with mpmath.workdps(50):
            lower = float(mpmath.gammainc(a, 0, z, regularized=True))
            upper = float(mpmath.gammainc(a, z, mpmath.inf, regularized=True))
        assert core._gamma_tail(a, z, False) == pytest.approx(lower, rel=1e-13, abs=0.0)
        assert core._gamma_tail(a, z, True) == pytest.approx(upper, rel=1e-13, abs=0.0)
        if upper < 1.0:
            assert core._gammainccinv(a, upper) == pytest.approx(z, rel=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.integers(1, 202), us=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    def test_each_element_keeps_its_bits_alone(self, a, us):
        z = _log_spread(a, us)
        levels = np.asarray(us)
        kernels = [
            (lambda v: core._gamma_tail(a, v, False), z),
            (lambda v: core._gamma_tail(a, v, True), z),
            (lambda v: core._gamma_tail(a, v, False, log=True), z[z < a]),
            (lambda v: core._gammainccinv(a, v), levels),
        ]
        for fn, arg in kernels:
            whole = fn(arg)
            for i in range(arg.size):
                assert whole[i:i + 1].tobytes() == fn(arg[i:i + 1]).tobytes()

    def test_order_5000_in_under_a_second(self):
        from scipy import special

        a = 5001
        z = a * np.array([0.9, 0.99, 1.0, 1.01, 1.1])
        y = np.array([1e-300, 1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-12])
        start = time.perf_counter()
        lower, upper = core._gamma_tail(a, z, False), core._gamma_tail(a, z, True)
        x = core._gammainccinv(a, y)
        assert time.perf_counter() - start < 1.0
        assert_allclose(lower, special.gammainc(a, z), rtol=1e-12, atol=0.0)
        assert_allclose(upper, special.gammaincc(a, z), rtol=1e-12, atol=0.0)
        assert_allclose(x, special.gammainccinv(a, y), rtol=1e-13, atol=0.0)


class TestSpectrum:
    def test_reality_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(1.0, [1j, 2.0, 1j])
        Spectrum(1.0, [0.5 - 0.1j, 2.0, 0.5 + 0.1j])

    def test_coefficient_lookup(self):
        s = Spectrum(2.0, [0.5 - 0.1j, 2.0, 0.5 + 0.1j])
        assert s.order == 1
        assert s.coefficient(0) == 2.0
        assert s.coefficient(1) == 0.5 + 0.1j
        assert s.coefficient(-1) == 0.5 - 0.1j
        assert s.coefficient(4) == 0.0

    def test_evaluate_matches_cosine(self):
        f = 3.0
        w = angular_frequency(f)
        s = Spectrum(w, [1.5, 10.0, 1.5])
        t = np.linspace(0.0, 1.0, 101)
        assert_allclose(s.evaluate(t), 10.0 + 3.0 * np.cos(w * t), atol=1e-12)
        assert isinstance(s.evaluate(0.1), float)

    def test_evaluate_rejects_bogus_imaginary(self):
        # bypass the constructor check with a tolerance, then evaluate strictly
        s = Spectrum(1.0, [0.5, 1.0, 0.5 + 1e-3j], tol=1.0)
        with pytest.raises(NumericalError):
            s.evaluate(np.linspace(0.0, 6.0, 50), max_imag=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.integers(0, 200),
        n=st.integers(1, 1024),
        f=st.floats(0.01, 1000.0),
    )
    @example(seed=1, order=200, n=7, f=3.0)
    @example(seed=2, order=0, n=1, f=0.01)
    def test_sample_period_matches_direct_sum(self, seed, order, n, f):
        # order >= n folds several harmonics into one FFT bin
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        pos[0] = pos[0].real
        s = Spectrum(angular_frequency(f), np.concatenate((pos[:0:-1].conj(), pos)))
        got = s.sample_period(n)
        want = s.evaluate(TimeGrid(0.0, 1.0 / f / n, n + 1).times())
        assert got.shape == (n + 1,)
        assert got[-1] == got[0]
        # the signal is bounded by sum |c_k|
        assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(s.coeffs))

    def test_sample_period_rejects_bogus_imaginary(self):
        s = Spectrum(1.0, [0.5, 1.0, 0.5 + 1e-3j], tol=1.0)
        with pytest.raises(NumericalError, match="imaginary residue"):
            s.evaluate(TimeGrid(0.0, 2 * math.pi / 16, 17).times())
        with pytest.raises(NumericalError, match="imaginary residue"):
            s.sample_period(16)

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_sample_period_needs_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="samples per period"):
            Spectrum(1.0, [1.0]).sample_period(n)

    def test_csv_roundtrip(self, tmp_path):
        w = angular_frequency(12.0)
        coeffs = np.array([0.25 + 0.5j, 1.0 - 2.0j, 3.0, 1.0 + 2.0j, 0.25 - 0.5j])
        s = Spectrum(w, coeffs)
        path = tmp_path / "spec.csv"
        s.to_csv(path)
        back = Spectrum.from_csv(path, w)
        assert_allclose(back.coeffs, s.coeffs)
        assert back.omega == s.omega


class TestSignalSpectrum:
    def test_constant(self):
        s = signal_spectrum(Constant(4.0), angular_frequency(2.0), order=2)
        assert s.coefficient(0) == 4.0
        assert s.coefficient(1) == 0.0

    def test_cosine(self):
        sig = Cosine(base=50.0, amplitude=45.0, frequency=7.0)
        s = signal_spectrum(sig, sig.omega, order=3)
        assert s.coefficient(0) == pytest.approx(50.0)
        assert s.coefficient(1) == pytest.approx(22.5)
        assert s.coefficient(-1) == pytest.approx(22.5)
        assert s.coefficient(2) == 0.0

    def test_cosine_frequency_mismatch(self):
        sig = Cosine(base=5.0, amplitude=1.0, frequency=7.0)
        with pytest.raises(ValueError):
            signal_spectrum(sig, angular_frequency(6.0), order=3)

    def test_sampled_recovers_harmonics(self):
        f = 4.0
        w = angular_frequency(f)
        n = 64
        grid = TimeGrid(0.0, (1.0 / f) / n, n)
        t = grid.times()
        values = 10.0 + 3.0 * np.cos(w * t) + 1.0 * np.sin(2 * w * t)
        s = signal_spectrum(Sampled(grid, values), w, order=4)
        assert s.coefficient(0) == pytest.approx(10.0, abs=1e-12)
        assert s.coefficient(1) == pytest.approx(1.5, abs=1e-12)
        assert s.coefficient(2) == pytest.approx(-0.5j, abs=1e-12)
        assert abs(s.coefficient(3)) < 1e-12

    def test_step_rejected(self):
        with pytest.raises(ValueError):
            signal_spectrum(Step(1.0, 2.0), 1.0, order=1)


def test_trace_roundtrip(tmp_path):
    grid = TimeGrid(0.0, 0.01, 50)
    a = np.linspace(1.0, 0.4, 50)
    nu = 10.0 * a
    tr = Trace(grid, a, nu)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "t,A,nu"
    back = Trace.from_csv(path)
    assert_allclose(back.grid.times(), grid.times())
    assert_allclose(back.active, a)
    assert_allclose(back.rate, nu)


def test_trace_roundtrip_far_from_zero(tmp_path):
    # the written times round to the doubles near 1e7, ~2e-9 apart
    grid = TimeGrid(1e7, 1e-6, 5)
    path = tmp_path / "late.csv"
    Trace(grid, np.full(5, 0.5), np.full(5, 3.0)).to_csv(path)
    back = Trace.from_csv(path)
    assert back.grid.n == 5
    assert_allclose(back.grid.times(), grid.times(), rtol=0.0, atol=1e-8)


def test_time_grid_rejects_one_uneven_spacing():
    dt = 0.01
    t = 2.0 + dt * np.arange(40)
    t[25:] += 1e-6 * dt
    with pytest.raises(ValueError, match="uniformly spaced"):
        TimeGrid.from_times(t)
    assert TimeGrid.from_times(2.0 + dt * np.arange(40)).n == 40


def test_spectrum_index_beyond_rows_rejected(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("0,1,0\n100000000000,0.5,0\n")
    with pytest.raises(ValueError, match="exceeds"):
        Spectrum.from_csv(path, omega=1.0)


def test_trace_validation():
    grid = TimeGrid(0.0, 0.1, 3)
    with pytest.raises(ValueError):
        Trace(grid, np.array([0.5, 1.5, 0.5]), np.zeros(3))
    with pytest.raises(ValueError):
        Trace(grid, np.full(3, 0.5), np.array([1.0, -2.0, 1.0]))


def test_equilibrium_history_balances():
    h = equilibrium_history(input_rate=10.0, mean_dead_time=0.08)
    a = h.active(-1.0)
    nu = h.rate(-1.0)
    assert a == pytest.approx(1.0 / 1.8)
    assert nu == pytest.approx(10.0 / 1.8)
    # occupation balance: busy mass equals rate times mean dead time
    assert 1.0 - a == pytest.approx(nu * 0.08)


def test_law_csv_roundtrip(tmp_path):
    ref = GammaDeadTime(order=2, rate=25.0)
    path = tmp_path / "law.csv"
    write_law_csv(ref, path, n_nodes=20001)
    law = read_law_csv(path)
    assert law.atom0 == 0.0
    assert law.mean() == pytest.approx(ref.mean(), rel=1e-7)
    probe = np.array([0.02, 0.1, 0.2])
    assert_allclose(law.density(probe), ref.density(probe), rtol=1e-6)


@pytest.mark.parametrize("rate", [10.0, 30.0])
@pytest.mark.parametrize("order", range(4))
def test_law_csv_of_a_sampled_law_reads_back(tmp_path, order, rate):
    # the reader demands unit trapezoid mass within 1e-9 of whatever it is given
    ref = GammaDeadTime(order, rate)
    path = tmp_path / "law.csv"
    write_law_csv(ref, path)
    law = read_law_csv(path)
    assert law.atom0 + np.trapezoid(law.pdf, law.x) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(law.pdf, ref.density(law.x), rtol=1e-4)


def test_law_csv_atom_header(tmp_path):
    x = np.linspace(0.0, 1.0, 4001)
    pdf = np.exp(-5.0 * x)
    pdf *= 0.25 / np.trapezoid(pdf, x)
    law = TabulatedDeadTime(x, pdf, atom_at_zero=0.75)
    path = tmp_path / "atom.csv"
    write_law_csv(law, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header.startswith("x,rho,atom0=")
    assert float(header.split("=")[1]) == pytest.approx(0.75)
    back = read_law_csv(path)
    assert back.atom0 == pytest.approx(0.75)
