import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from sys import getswitchinterval, setswitchinterval
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special

from deadtime import cli, core
from deadtime.core import (
    Constant,
    Cosine,
    FixedDeadTime,
    GammaDeadTime,
    NumericalError,
    Spectrum,
    TabulatedDeadTime,
    TimeGrid,
    angular_frequency,
    read_law_csv,
    signal_spectrum,
    write_law_csv,
)
from deadtime.spectral import (
    HarmonicSystem,
    cosine_continued_fraction,
    infer_input_spectrum,
    output_spectrum,
    periodic_rate,
    qk_array,
    solve_active_spectrum,
)

# Fig-3-style drive: 80 ms dead time, 10 Hz base output, 90% modulation
D = 0.08
LAM0 = 1.0 / (0.1 - D)
EPS = 0.9 * LAM0


def fig3_system(f, K=16):
    w = angular_frequency(f)
    lam_spec = signal_spectrum(Cosine(LAM0, EPS, f), w, order=1)
    return HarmonicSystem(w, K, FixedDeadTime(D), lam_spec)


class TestQkFixed:
    def test_zeroth_is_the_dead_time(self):
        assert FixedDeadTime(0.08).survivor_transform(5.0, [0])[0] == 0.08

    def test_resonance_vanishes(self):
        d = 0.08
        w = 2 * math.pi / d
        assert abs(FixedDeadTime(d).survivor_transform(w, [1])[0]) < 1e-15

    def test_small_argument_expansion(self):
        d, w = 0.01, 0.01
        got = FixedDeadTime(d).survivor_transform(w, [1])[0]
        assert abs(got - (d - 1j * w * d**2 / 2)) < 1e-10

    def test_hermitian(self):
        for k in (1, 3, 7):
            assert FixedDeadTime(0.05).survivor_transform(12.0, [-k])[0] == pytest.approx(
                FixedDeadTime(0.05).survivor_transform(12.0, [k])[0].conjugate()
            )

    def test_matches_survivor_integral(self):
        # independent quadrature of the survivor transform
        d, w, k = 0.07, 9.0, 3
        re = integrate.quad(lambda y: math.cos(k * w * y), 0, d)[0]
        im = integrate.quad(lambda y: -math.sin(k * w * y), 0, d)[0]
        got = FixedDeadTime(d).survivor_transform(w, [k])[0]
        assert got == pytest.approx(re + 1j * im, abs=1e-12)


class TestQkLaw:
    def test_fixed_delegates(self):
        law = FixedDeadTime(0.08)
        w = angular_frequency(7.0)
        for k in range(9):
            s = 1j * k * w
            closed = (1.0 - cmath.exp(-s * 0.08)) / s if k else 0.08
            assert law.survivor_transform(w, [k])[0] == pytest.approx(closed, abs=1e-14)

    def test_gamma_mean(self):
        law = GammaDeadTime(order=10, rate=137.5)
        assert law.survivor_transform(3.0, [0])[0] == pytest.approx(11 / 137.5, abs=1e-15)

    def test_gamma_against_survivor_quadrature(self):
        law = GammaDeadTime(order=10, rate=137.5)
        w = angular_frequency(5.0)
        k = 1

        def surv(y):
            return special.gammaincc(11, 137.5 * y)

        re = integrate.quad(lambda y: surv(y) * math.cos(k * w * y), 0, 0.5, limit=200)[0]
        im = integrate.quad(lambda y: -surv(y) * math.sin(k * w * y), 0, 0.5, limit=200)[0]
        assert law.survivor_transform(w, [k])[0] == pytest.approx(re + 1j * im, abs=1e-9)

    def test_tabulated_tracks_gamma(self):
        ref = GammaDeadTime(order=3, rate=50.0)
        x = np.linspace(0.0, ref.quantile(1 - 1e-13), 8001)
        pdf = ref.density(x)
        law = TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x))
        w = angular_frequency(6.0)
        for k in (0, 1, 4):
            got, want = law.survivor_transform(w, [k])[0], ref.survivor_transform(w, [k])[0]
            assert got == pytest.approx(want, abs=2e-6)

    def test_array_is_hermitian(self):
        q = qk_array(GammaDeadTime(2, 40.0), 11.0, 6)
        assert_allclose(q[::-1].conj(), q, atol=1e-15)


def tabulated_gamma(order=3, rate=50.0, nodes=2001):
    ref = GammaDeadTime(order=order, rate=rate)
    x = np.linspace(0.0, ref.quantile(1 - 1e-13), nodes)
    pdf = ref.density(x)
    return TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x))


def mp_cell(law, j):
    """Cell ``j`` of the table at 50 digits, as ``(x_j, h, s_j, p_j, slope)``: on it
    ``S(x_j + t) = s_j - p_j t - slope t^2 / 2`` exactly, ``s_j`` the law's own
    survivor at the node (``1 - _cdf[j]``) and ``p_j + slope t`` its density."""
    x0, x1 = (mpmath.mpf(float(v)) for v in law.x[j:j + 2])
    p0, p1 = (mpmath.mpf(float(v)) for v in law.pdf[j:j + 2])
    s = mpmath.mpf(float(law.survivor(law.x[j])))
    return x0, x1 - x0, s, p0, (p1 - p0) / (x1 - x0)


def mp_survivor(law, v):
    """``S(v)`` at 50 digits: the survivor of the cell holding ``v`` from its left
    node, held at zero once it would go below, and zero past the last node."""
    with mpmath.workdps(50):
        if v < law.x[0]:
            return 1 - mpmath.mpf(law.atom0)
        if v >= law.x[-1]:
            return mpmath.mpf(float(law.survivor(law.x[-1]))) if v == law.x[-1] else 0
        a, h, s, p, slope = mp_cell(law, int(np.searchsorted(law.x, v, side="right")) - 1)
        t = mpmath.mpf(float(v)) - a
        return max(s - p * t - slope * t**2 / 2, mpmath.mpf(0))


def mp_quantile(law, q):
    """The quantile at 50 digits: in the first cell whose right node's CDF
    reaches ``q``, the root of ``_cdf[j] + p_j t + slope t^2 / 2 = q``."""
    with mpmath.workdps(50):
        if q <= law.atom0:
            return mpmath.mpf(0)
        j = next((j for j in range(law.x.size - 1) if law._cdf[j + 1] >= q), law.x.size - 2)
        a, h, _, p, slope = mp_cell(law, j)
        r = mpmath.mpf(float(q)) - mpmath.mpf(float(law._cdf[j]))
        if slope == 0:
            t = r / p if p > 0 else h
        else:
            t = (mpmath.sqrt(max(p**2 + 2 * slope * r, 0)) - p) / slope
        return a + min(max(t, mpmath.mpf(0)), h)


def mp_survivor_transform(law, omega, k):
    """``int S(y) exp(-i k omega y) dy`` cell by cell at 50 digits, ``S`` the
    quadratic of :func:`mp_cell` in each cell (and flat from zero to the first
    node)."""
    with mpmath.workdps(50):
        w = mpmath.mpf(k) * mpmath.mpf(omega)
        x0 = mpmath.mpf(float(law.x[0]))
        total = (1 - mpmath.mpf(law.atom0)) * (1 - mpmath.expj(-w * x0)) / (1j * w)
        for j in range(law.x.size - 1):
            a, h, s, p, slope = mp_cell(law, j)
            theta = w * h
            e = mpmath.expj(-theta)
            # phi[m] = int_0^1 u^m exp(-i theta u) du
            phi = [(1 - e) / (1j * theta)]
            for m in (1, 2):
                phi.append((m * phi[-1] - e) / (1j * theta))
            cell = s * h * phi[0] - p * h**2 * phi[1] - slope * h**3 * phi[2] / 2
            total += mpmath.expj(-w * a) * cell
        return complex(total)


@st.composite
def tables(draw):
    """A table law on 2 to 24 random nodes from ``x[0] >= 0``, with an atom below
    0.5 and, in some, a run of cells of zero density."""
    n = draw(st.integers(2, 24))
    first = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 1.0))
    x = scale * (first + np.concatenate(([0.0], np.cumsum(gaps))))
    pdf = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    zero = draw(st.integers(0, n - 1))
    pdf[zero:zero + draw(st.integers(0, n // 2))] = 0.0
    pdf[draw(st.integers(0, n - 1))] += 0.1  # some mass in the density
    atom = draw(st.floats(0.0, 0.5, exclude_max=True))
    return TabulatedDeadTime(x, pdf * ((1.0 - atom) / np.trapezoid(pdf, x)), atom)


class TestQkTabulated:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=tables(), log_span=st.floats(-4.0, 4.0), k=st.integers(1, 40))
    def test_exact_on_its_own_nodes(self, law, log_span, k):
        # k * omega * x[-1] from 1e-4 to 1e4, across the switch to the series
        omega = 10.0**log_span / (k * float(law.x[-1]))
        q = law.survivor_transform(omega, [k, -k])
        ref = mp_survivor_transform(law, omega, k)
        assert abs(q[0] - ref) <= 1e-12 * abs(ref)
        assert abs(q[1] - ref.conjugate()) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "law", [FixedDeadTime(D), GammaDeadTime(3, 50.0), tabulated_gamma()],
        ids=["fixed", "gamma", "table"],
    )
    def test_doubled_solve_is_a_fresh_system(self, law):
        # the doublings grow the system's ladder: every public result is the
        # one a system built at the converged truncation gives, bit for bit
        f = 4.0
        w = angular_frequency(f)
        lam_spec = signal_spectrum(Cosine(LAM0, EPS, f), w, order=1)
        grid = TimeGrid(0.0, 1.0 / f / 64, 65)

        def run(K):
            sys = HarmonicSystem(w, K, law, lam_spec)
            alpha = solve_active_spectrum(sys)
            beta = output_spectrum(sys, alpha)
            trace = periodic_rate(sys, beta, grid)
            return alpha.coeffs, beta.coeffs, trace.active, trace.rate

        doubled = run(4)
        final_K = doubled[0].size // 2
        assert final_K > 8  # doubled past the system's own ladder of |k| <= 8
        for got, want in zip(doubled, run(final_K)):
            assert np.array_equal(got, want)

    def test_one_system_shared_between_threads(self):
        law = tabulated_gamma()
        f = 6.25
        w = angular_frequency(f)
        sys = HarmonicSystem(w, 4, law, signal_spectrum(Cosine(LAM0, EPS, f), w, order=1))
        grid = TimeGrid(0.0, 1.0 / f / 64, 65)

        def run():
            alpha = solve_active_spectrum(sys)
            beta = output_spectrum(sys, alpha)
            trace = periodic_rate(sys, beta, grid)
            return alpha.coeffs, beta.coeffs, trace.active, trace.rate

        serial = run()
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run) for _ in range(2)]
                shared = [fut.result(timeout=300) for fut in futures]
        finally:
            setswitchinterval(interval)
        for got in shared:
            for a, b in zip(got, serial):
                assert np.array_equal(a, b)


class TestTableIsItsDensity:
    """A table is the piecewise-linear density of its samples plus its atom, and
    its survivor, quantile and ``q_k`` (above) are exact integrals of it."""

    EPS = np.finfo(float).eps

    @staticmethod
    def cell_points(law):
        """Three points inside each cell, one below the first node, the last node
        and one past it."""
        x = law.x
        inner = (x[:-1, None] + np.diff(x)[:, None] * np.array([0.1, 0.5, 0.9])).ravel()
        return np.concatenate((inner, [0.5 * x[0], x[-1], 1.5 * x[-1]]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=tables(), levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_survivor_and_quantile_match_the_cell_reference(self, law, levels):
        for v, got in zip(*(lambda pts: (pts, law.survivor(pts)))(self.cell_points(law))):
            # within 1e-12 of the cell's left node, the scale its value is rounded at
            scale = float(law.survivor(law.x[max(np.searchsorted(law.x, v, "right") - 1, 0)]))
            assert abs(got - float(mp_survivor(law, v))) <= 1e-12 * scale
        for q in levels + [float(law.atom0), 1.0]:
            got, ref = law.quantile(q), float(mp_quantile(law, q))
            # where the density vanishes at the root, the root is double, and the
            # level's last bit moves it by the bit's square root: there the CDF at
            # the quantile must still meet the level to its rounding
            assert (abs(got - ref) <= 1e-12 * ref
                    or abs(1 - mp_survivor(law, got) - q) <= 4 * self.EPS)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(law=tables(), log_span=st.floats(-1.0, 1.0), k=st.integers(1, 40))
    def test_transform_summed_in_node_blocks(self, law, log_span, k):
        # the sums over the jumps run a block of nodes at a time; three here
        omega = 10.0**log_span / (k * float(law.x[-1]))
        with mock.patch.object(core, "_BLOCK_ELEMENTS", 3):
            q = law.survivor_transform(omega, [k])[0]
        ref = mp_survivor_transform(law, omega, k)
        assert abs(q - ref) <= 1e-12 * abs(ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=tables())
    def test_nodes_keep_the_trapezoid_cdf(self, law):
        assert np.array_equal(law.survivor(law.x), 1.0 - law._cdf)
        assert law.survivor(0.5 * law.x[0]) == 1.0 - law.atom0
        assert law.survivor(np.nextafter(law.x[-1], np.inf)) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=tables())
    def test_survivor_falls_by_the_density(self, law):
        # a central difference is exact on the quadratic: S(a) - S(b) = (b - a) rho(m)
        # at the midpoint m, the mean of the linear density's ends
        a = law.x[:-1] + 0.25 * np.diff(law.x)
        b = law.x[1:] - 0.25 * np.diff(law.x)
        drop = law.survivor(a) - law.survivor(b)
        mean = 0.5 * (law.density(a) + law.density(b))
        assert np.all(np.abs(drop - (b - a) * mean) <= 8 * self.EPS)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=tables())
    def test_quantile_inverts_the_survivor(self, law):
        v = self.cell_points(law)[:-3]
        rho = law.density(v)
        v, rho = v[rho > 0.0], rho[rho > 0.0]
        back = law.quantile(1.0 - law.survivor(v))
        # the level 1 - S carries one rounding, which the density turns into x;
        # where the CDF moves less than that rounding, as across a cell of zero
        # density next to a tail of 1e-15, the survivor must still agree
        forward = np.abs(back - v) * rho <= 4 * self.EPS * (v * rho + 1.0)
        assert np.all(forward | (np.abs(law.survivor(back) - law.survivor(v)) <= 4 * self.EPS))

    def test_one_law_on_the_gamma_table(self, tmp_path):
        # the 2,048-node table write_law_csv makes of gamma:10,137.5, where the
        # trapezoid CDF between the nodes missed the density's by 2.5e-6
        write_law_csv(GammaDeadTime(10, 137.5), tmp_path / "law.csv")
        law = read_law_csv(tmp_path / "law.csv")
        assert law.x.size == 2048
        rng = np.random.default_rng(3)
        v = rng.uniform(0.0, law.x[-1], 200)
        gap = max(abs(float(mp_survivor(law, a)) - float(b)) for a, b in zip(v, law.survivor(v)))
        assert gap <= 1e-15
        q = rng.uniform(0.0, 1.0, 200)
        gap = max(abs(1 - float(mp_survivor(law, a)) - b) for a, b in zip(law.quantile(q), q))
        assert gap <= 1e-15


def recorded_harmonics(monkeypatch, cls):
    """The harmonics of each call to ``cls.survivor_transform``, as the calls come."""
    calls = []
    inner = cls.survivor_transform

    def record(self, omega, ks):
        calls.append(list(ks))
        return inner(self, omega, ks)

    monkeypatch.setattr(cls, "survivor_transform", record)
    return calls


class TestEachCouplingOnce:
    """A harmonic problem evaluates each ``q_k``, ``k >= 1``, once."""

    def test_periodic_table_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_law_csv(tabulated_gamma(nodes=201), "law.csv")
        calls = recorded_harmonics(monkeypatch, TabulatedDeadTime)
        argv = ["periodic", "--law", "table:law.csv", "--nu0", "5", "--mod-depth", "0.5",
                "--f", "50", "--harmonics", "4", "--samples", "16", "--out-prefix", "p"]
        assert cli.main(argv) == 0
        beta = Spectrum.from_csv("p-beta-f50.csv", angular_frequency(50.0))
        assert beta.order == 8 + 4  # the solve doubled once, from truncation 4 to 8
        ks = [k for call in calls for k in call]
        positive = [k for k in ks if k >= 1]
        assert len(positive) == len(set(positive))
        assert set(ks) == set(range(beta.order + 1))

    def test_periodic_run_doubling_past_the_system_ladder(self, tmp_path, monkeypatch):
        # a narrow law at 12.5 Hz: the solve doubles from 4 to 16, past the
        # system's own ladder of |k| <= 8, and periodic_rate reads that ladder
        monkeypatch.chdir(tmp_path)
        write_law_csv(GammaDeadTime(200, 201 / 0.08), "law.csv", n_nodes=4001)
        calls = recorded_harmonics(monkeypatch, TabulatedDeadTime)
        argv = ["periodic", "--law", "table:law.csv", "--nu0", "10", "--mod-depth", "0.9",
                "--f", "12.5", "--harmonics", "4", "--samples", "64", "--out-prefix", "p"]
        assert cli.main(argv) == 0
        beta = Spectrum.from_csv("p-beta-f12.5.csv", angular_frequency(12.5))
        assert beta.order == 16 + 4  # the solve doubled twice, from truncation 4 to 16
        ks = [k for call in calls for k in call]
        positive = [k for k in ks if k >= 1]
        assert len(positive) == len(set(positive))
        assert set(ks) == set(range(beta.order + 1))

    def test_output_cross_check_covers_the_whole_solved_band(self):
        w = angular_frequency(12.5)
        lam_spec = signal_spectrum(Cosine(10.0 / (1.0 - 0.8), 0.9 * 10.0 / (1.0 - 0.8), 12.5),
                                   w, order=1)
        sys = HarmonicSystem(w, 4, GammaDeadTime(200, 201 / 0.08), lam_spec)
        alpha = solve_active_spectrum(sys)
        assert alpha.order == 16 and sys.q.size == 2 * 16 + 1
        output_spectrum(sys, alpha)
        k = 12  # past the built ladder's 2K = 8, inside the solved band
        coeffs = alpha.coeffs.copy()
        coeffs[16 + k] += 1e-6
        coeffs[16 - k] = coeffs[16 + k].conjugate()
        # the convolution spreads the error to the harmonics k - 1 .. k + 1
        with pytest.raises(NumericalError, match="output harmonic -13 disagrees"):
            output_spectrum(sys, Spectrum(w, coeffs, tol=1e-8))

    @pytest.mark.parametrize("law", [FixedDeadTime(D), GammaDeadTime(10, 137.5)],
                             ids=["fixed", "gamma"])
    def test_continued_fraction(self, law, monkeypatch):
        calls = recorded_harmonics(monkeypatch, type(law))
        cosine_continued_fraction(LAM0, EPS, law, angular_frequency(6.0))
        ks = sorted(k for call in calls for k in call)
        depth = ks[-1]
        assert ks == list(range(depth + 1))
        assert depth >= 64 and depth & (depth - 1) == 0  # a doubling of the first depth, 32


class TestSolveActiveSpectrum:
    def test_constant_input_recovers_equilibrium(self):
        w = angular_frequency(5.0)
        lam_spec = signal_spectrum(Constant(LAM0), w, order=1)
        sys = HarmonicSystem(w, 4, FixedDeadTime(D), lam_spec)
        alpha = solve_active_spectrum(sys)
        assert alpha.coefficient(0) == pytest.approx(1 / (1 + LAM0 * D), abs=1e-14)
        for k in range(1, alpha.order + 1):
            assert abs(alpha.coefficient(k)) < 1e-14

    def test_no_distortion_at_inverse_dead_time(self):
        f = 1.0 / D
        alpha = solve_active_spectrum(fig3_system(f))
        assert alpha.coefficient(0) == pytest.approx(1 / (1 + LAM0 * D), abs=1e-12)
        mags = [abs(alpha.coefficient(k)) for k in range(1, alpha.order + 1)]
        assert max(mags) < 1e-10

    def test_truncation_insensitive(self):
        f = 6.25
        a1 = solve_active_spectrum(fig3_system(f, K=8))
        a2 = solve_active_spectrum(fig3_system(f, K=16))
        for k in range(-8, 9):
            assert abs(a1.coefficient(k) - a2.coefficient(k)) < 1e-10

    def test_truncation_guard(self):
        w = angular_frequency(5.0)
        lam_spec = signal_spectrum(Cosine(LAM0, EPS, 5.0), w, order=1)
        with pytest.raises(ValueError, match="truncation"):
            solve_active_spectrum(HarmonicSystem(w, 2, FixedDeadTime(D), lam_spec))


class TestContinuedFraction:
    @pytest.mark.parametrize("f", [4.0, 6.25, 10.0, 12.5, 17.5])
    def test_matches_dense_solve(self, f):
        dense = solve_active_spectrum(fig3_system(f))
        fast = cosine_continued_fraction(LAM0, EPS, FixedDeadTime(D), angular_frequency(f))
        for k in range(-8, 9):
            assert abs(dense.coefficient(k) - fast.coefficient(k)) < 1e-10

    def test_zero_modulation(self):
        alpha = cosine_continued_fraction(LAM0, 0.0, FixedDeadTime(D), angular_frequency(3.0))
        assert alpha.coefficient(0) == pytest.approx(1 / (1 + LAM0 * D))
        assert abs(alpha.coefficient(1)) == 0.0

    def test_resonant_drive_keeps_only_the_mean(self):
        alpha = cosine_continued_fraction(LAM0, EPS, FixedDeadTime(D), 2 * math.pi / D)
        assert alpha.coefficient(0) == pytest.approx(1 / (1 + LAM0 * D), abs=1e-12)
        for k in range(1, alpha.order + 1):
            assert abs(alpha.coefficient(k)) < 1e-12

    def test_gamma_law_agrees_with_dense_solve(self):
        law = GammaDeadTime(order=10, rate=137.5)
        f = 6.0
        w = angular_frequency(f)
        lam_spec = signal_spectrum(Cosine(LAM0, EPS, f), w, order=1)
        dense = solve_active_spectrum(HarmonicSystem(w, 16, law, lam_spec))
        fast = cosine_continued_fraction(LAM0, EPS, law, w)
        for k in range(-6, 7):
            assert abs(dense.coefficient(k) - fast.coefficient(k)) < 1e-10

    def test_rejects_overmodulation(self):
        with pytest.raises(ValueError):
            cosine_continued_fraction(10.0, 11.0, FixedDeadTime(0.05), 30.0)


class TestOutputSpectrum:
    def test_constant_input(self):
        w = angular_frequency(5.0)
        lam_spec = signal_spectrum(Constant(LAM0), w, order=1)
        sys = HarmonicSystem(w, 4, FixedDeadTime(D), lam_spec)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        assert beta.coefficient(0) == pytest.approx(LAM0 / (1 + LAM0 * D), abs=1e-12)
        for k in range(1, beta.order + 1):
            assert abs(beta.coefficient(k)) < 1e-12

    def test_frequency_doubling_near_half_resonance(self):
        sys = fig3_system(6.25)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        assert abs(beta.coefficient(2)) > abs(beta.coefficient(1))

    def test_mean_rate_resonance(self):
        def beta0(f):
            sys = fig3_system(f)
            return output_spectrum(sys, solve_active_spectrum(sys)).coefficient(0).real

        assert beta0(0.95 / D) > beta0(0.5 / D)

    def test_pointwise_product_identity(self):
        # the output series must equal input rate times active fraction
        # sampled directly
        f = 10.0
        w = angular_frequency(f)
        sys = fig3_system(f)
        alpha = solve_active_spectrum(sys)
        beta = output_spectrum(sys, alpha)
        t = np.linspace(0.0, 1.0 / f, 128, endpoint=False)
        lam_t = LAM0 + EPS * np.cos(w * t)
        assert_allclose(
            beta.evaluate(t), lam_t * alpha.evaluate(t), atol=1e-8, rtol=0
        )


class TestInferInput:
    def test_round_trip(self):
        f = 10.0
        sys = fig3_system(f)
        alpha = solve_active_spectrum(sys)
        beta = output_spectrum(sys, alpha)
        lam_hat, cond = infer_input_spectrum(beta, FixedDeadTime(D))
        assert cond >= 1.0 and math.isfinite(cond)
        assert lam_hat.coefficient(0) == pytest.approx(LAM0, abs=1e-8)
        assert lam_hat.coefficient(1) == pytest.approx(EPS / 2, abs=1e-8)
        for k in range(2, lam_hat.order + 1):
            assert abs(lam_hat.coefficient(k)) < 1e-8

    def test_constant_output(self):
        w = angular_frequency(5.0)
        a0 = 1 / (1 + LAM0 * D)
        beta = Spectrum(w, np.array([0.0, LAM0 * a0, 0.0], dtype=complex))
        lam_hat, _ = infer_input_spectrum(beta, FixedDeadTime(D))
        assert lam_hat.coefficient(0) == pytest.approx(LAM0, abs=1e-10)
        assert abs(lam_hat.coefficient(1)) < 1e-10

    def test_singular_system_raises(self):
        # beta_0 = 1/q_0 zeroes out the whole diagonal
        w = angular_frequency(5.0)
        beta = Spectrum(w, np.array([1.0 / D], dtype=complex))
        with pytest.raises(NumericalError):
            infer_input_spectrum(beta, FixedDeadTime(D))

    def test_noise_amplification_bounded_by_condition(self):
        f = 10.0
        sys = fig3_system(f)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        lam_hat, cond = infer_input_spectrum(beta, FixedDeadTime(D))
        rng = np.random.default_rng(11)
        noise = 1e-6 * np.abs(beta.coeffs) * rng.standard_normal(beta.coeffs.size)
        noise = noise + noise[::-1]  # keep the spectrum Hermitian
        noisy = Spectrum(beta.omega, beta.coeffs + noise)
        lam_noisy, _ = infer_input_spectrum(noisy, FixedDeadTime(D))
        err = np.max(np.abs(lam_noisy.coeffs - lam_hat.coeffs))
        scale = np.max(np.abs(beta.coeffs))
        assert err <= 10.0 * cond * 1e-6 * scale


class TestPeriodicRate:
    def test_constant_input_is_flat(self):
        w = angular_frequency(5.0)
        lam_spec = signal_spectrum(Constant(LAM0), w, order=1)
        sys = HarmonicSystem(w, 4, FixedDeadTime(D), lam_spec)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        tr = periodic_rate(sys, beta, TimeGrid(0.0, 0.01, 25))
        assert_allclose(tr.rate, LAM0 / (1 + LAM0 * D), atol=1e-10)
        assert_allclose(tr.active, 1 / (1 + LAM0 * D), atol=1e-12)

    def test_undistorted_transmission_at_resonance(self):
        f = 1.0 / D
        w = angular_frequency(f)
        sys = fig3_system(f)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        grid = TimeGrid(0.0, 1.0 / f / 64, 65)
        tr = periodic_rate(sys, beta, grid)
        a0 = 1 / (1 + LAM0 * D)
        lam_t = LAM0 + EPS * np.cos(w * grid.times())
        assert_allclose(tr.rate, a0 * lam_t, atol=1e-8)

    def test_max_rate_curve_has_single_harmonic_peak(self):
        # scan of the per-period maximum: highest near the no-distortion
        # frequency band, collapsing toward the mean at very high drive
        def peak(f):
            sys = fig3_system(f)
            beta = output_spectrum(sys, solve_active_spectrum(sys))
            grid = TimeGrid(0.0, 1.0 / f / 256, 257)
            return float(np.max(periodic_rate(sys, beta, grid).rate))

        assert peak(12.5) > peak(4.0)
        assert peak(12.5) > peak(30.0)

    @staticmethod
    def direct_sums(sys, beta, grid):
        """The trace of ``periodic_rate`` summed by ``Spectrum.evaluate``."""
        b = beta.order
        q = qk_array(sys.law, sys.omega, b)
        alpha = [
            (1.0 if k == 0 else 0.0) - q[k + b] * beta.coefficient(k) for k in range(-b, b + 1)
        ]
        t = grid.times()
        active = Spectrum(sys.omega, alpha, tol=1e-8).evaluate(t, max_imag=1e-8)
        return np.clip(active, 0.0, 1.0), np.clip(beta.evaluate(t, max_imag=1e-8), 0.0, None)

    @pytest.mark.parametrize("grid", [
        TimeGrid(0.05, 1.0 / 6.25 / 64, 65),
        TimeGrid(0.0, 1.0 / 6.25 / 64, 129),
        TimeGrid(0.0, 1.0 / 6.25 / 64.5, 65),
    ], ids=["shifted", "two-periods", "partial-period"])
    def test_off_period_grid_keeps_the_direct_sum(self, grid):
        sys = fig3_system(6.25)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        tr = periodic_rate(sys, beta, grid)
        active, rate = self.direct_sums(sys, beta, grid)
        assert np.array_equal(tr.active, active)
        assert np.array_equal(tr.rate, rate)

    def test_one_period_grid_takes_the_fft(self, monkeypatch):
        f = 6.25
        sys = fig3_system(f)
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        grid = TimeGrid(0.0, 1.0 / f / 512, 513)
        active, rate = self.direct_sums(sys, beta, grid)

        def refuse(*args, **kwargs):
            raise AssertionError("one-period grid summed directly")

        monkeypatch.setattr(Spectrum, "evaluate", refuse)
        tr = periodic_rate(sys, beta, grid)
        assert_allclose(tr.rate, rate, rtol=0, atol=1e-12 * np.max(rate))
        assert_allclose(tr.active, active, rtol=0, atol=1e-12 * np.max(active))


class TestGammaChainCrossCheck:
    def test_periodic_steady_state(self):
        from deadtime.core import Cosine as CosineSig
        from deadtime.gamma_chain import equilibrium_state, integrate as chain_integrate

        n, beta_rate = 10, 137.5
        law = GammaDeadTime(order=n, rate=beta_rate)
        f = 10.0
        w = angular_frequency(f)
        sig = CosineSig(base=LAM0, amplitude=EPS, frequency=f)
        lam_spec = signal_spectrum(sig, w, order=1)
        sys = HarmonicSystem(w, 16, law, lam_spec)
        beta = output_spectrum(sys, solve_active_spectrum(sys))

        h = 2.5e-5
        per_period = int(round(1.0 / f / h))
        n_periods = 25
        grid = TimeGrid(0.0, h, n_periods * per_period + 1)
        b0 = equilibrium_state(n, beta_rate, sig.rate(0.0))
        tr = chain_integrate(n, beta_rate, sig, b0, grid)

        tail = TimeGrid(grid.times()[-per_period - 1], h, per_period + 1)
        ref = periodic_rate(sys, beta, tail)
        got = tr.rate[-per_period - 1 :]
        rel_l2 = np.sqrt(np.mean((got - ref.rate) ** 2)) / np.sqrt(np.mean(ref.rate**2))
        assert rel_l2 < 1e-5
