"""The dead-time-law interface.

A law defined only in this file runs through every route of the package,
and every closed form or own grid of a shipped law agrees with the generic
body the base class builds from ``survivor``, ``density`` and ``quantile``
alone.  Every law's mean is its ``q_0``, bit for bit, and every ``q_k`` has
the same bits whatever other harmonics it is asked with.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from deadtime import cli, core, dde
from deadtime.core import (
    Constant,
    Cosine,
    DeadTimeLaw,
    FixedDeadTime,
    GammaDeadTime,
    Step,
    TabulatedDeadTime,
    TimeGrid,
    angular_frequency,
    equilibrium_history,
    read_law_csv,
    signal_spectrum,
    write_law_csv,
)
from deadtime.mc_sim import SimConfig, hazard_pprd, simulate_generative, simulate_rejection
from deadtime.renewal_map import RenewalSpec, dead_time_from_interval, lognormal_minimal_rate
from deadtime.spectral import HarmonicSystem, qk_array, solve_active_spectrum


class ShiftedGamma(DeadTimeLaw):
    """An absolute refractory floor ``shift`` followed by a gamma-distributed rest.

    Order 0 is the shifted exponential.  Only the required methods.
    """

    def __init__(self, shift, order, rate):
        self.shift, self.order, self.rate = shift, order, rate

    def survivor(self, x):
        z = np.maximum(np.asarray(x, dtype=float) - self.shift, 0.0)
        return special.gammaincc(self.order + 1, self.rate * z)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x - self.shift, 0.0)
        rho = self.rate * (self.rate * z) ** self.order * np.exp(-self.rate * z)
        return np.where(x >= self.shift, rho / math.factorial(self.order), 0.0)

    def quantile(self, q):
        rest = special.gammainccinv(self.order + 1, 1.0 - np.asarray(q, dtype=float))
        out = self.shift + rest / self.rate
        return out if np.ndim(q) else float(out)

    def q_exact(self, omega, k):
        if k == 0:
            return complex(self.shift + (self.order + 1) / self.rate)
        s = 1j * k * omega
        laplace = np.exp(-s * self.shift) * (self.rate / (self.rate + s)) ** (self.order + 1)
        return (1.0 - laplace) / s


# (law, q_k relative, hazard absolute, occupation-balance residual): the
# generic quadratures converge like the smoothness of the density, so the
# jump of the shifted exponential costs accuracy that the order-3 law keeps
CASES = {
    "shifted-exponential": (ShiftedGamma(0.01, 0, 200.0), 1e-5, 0.1, 1e-2),
    "shifted-gamma": (ShiftedGamma(0.01, 3, 300.0), 1e-10, 1e-7, 1e-6),
}


@pytest.fixture(params=list(CASES), name="case")
def _case(request):
    return CASES[request.param]


class TestLawDefinedOutsideThePackage:
    def test_qk_array_matches_the_analytic_transform(self, case):
        law, tol, _, _ = case
        omega = 2.0 * math.pi * 7.0
        want = np.array([law.q_exact(omega, k) for k in range(-12, 13)])
        got = qk_array(law, omega, 12)
        assert np.max(np.abs(got - want)) <= tol * law.mean()

    @pytest.mark.parametrize(
        "sig", [Constant(60.0), Step(20.0, 60.0, 0.0)], ids=["constant", "step"]
    )
    def test_hazard_matches_quadrature(self, case, sig):
        law, _, tol, _ = case
        t = 0.03
        tau = np.array([0.005, 0.012, 0.02, 0.04, 0.08, 0.2])
        got = hazard_pprd(sig, law, t, tau)
        big = sig.cumulative_rate
        for g, age in zip(got, tau):
            kinks = [p for p in (law.shift, age - t) if 0.0 < p < age]
            body, _ = integrate.quad(
                lambda x: math.exp(big(t - age + x) - big(t)) * law.density(x),
                0.0, age, points=kinks or None, limit=200,
            )
            surv = law.survivor(age)
            assert g == pytest.approx(60.0 * (1.0 - surv / (body + surv)), abs=tol)

    @pytest.mark.parametrize("sampler", [simulate_generative, simulate_rejection])
    def test_samplers_hold_the_equilibrium(self, case, sampler):
        law = case[0]
        lam = 60.0
        cfg = SimConfig(
            components=4000, seed=3, t_span=(0.0, 0.2), bin_width=0.05, lambda_max=lam
        )
        est = sampler(Constant(lam), law, cfg)
        active = 1.0 / (1.0 + lam * law.mean())
        assert np.all(np.abs(est.rate_hat - lam * active) <= 4.5 * est.rate_se)
        assert np.all(np.abs(est.active_hat - active) <= 4.5 * est.active_se)

    def test_integrate_pprd_balances_occupation(self, case):
        law, _, _, tol = case
        sig = Step(20.0, 60.0, 0.0)
        grid = TimeGrid(0.0, law.support_window() / 300, 1500)
        trace = dde.integrate_pprd(sig, law, None, grid)
        assert dde.normalization_residual(trace, sig, law).max_abs <= tol
        settled = 1.0 / (1.0 + 60.0 * law.mean())
        assert trace.active[-1] == pytest.approx(settled, abs=10 * tol)

    def test_integrate_pprd_passes_the_equilibrium_history(self, case):
        law = case[0]
        sig = Step(20.0, 60.0, 0.0)
        grid = TimeGrid(0.0, law.support_window() / 300, 400)
        explicit = dde.integrate_pprd(sig, law, equilibrium_history(20.0, law.mean()), grid)
        assert np.array_equal(explicit.active, dde.integrate_pprd(sig, law, None, grid).active)

    def test_law_csv_round_trip(self, tmp_path):
        law = CASES["shifted-gamma"][0]
        path = tmp_path / "law.csv"
        write_law_csv(law, path)
        back = read_law_csv(path)
        x, pdf = law.density_table()
        np.testing.assert_array_equal(back.x, x)
        np.testing.assert_array_equal(back.pdf, pdf)
        assert back.mean() == pytest.approx(law.mean(), rel=1e-8)

    def test_one_table_entry_offers_it_on_the_command_line(self, tmp_path, monkeypatch, capsys):
        entry = ("s,n,beta", (float, int, float), ShiftedGamma)
        monkeypatch.setitem(core.LAW_KINDS, "shifted", entry)
        out = tmp_path / "hazard.csv"
        flags = ["--lambda0", "20", "--tau-max", "0.1", "--points", "21", "--out", str(out)]
        assert cli.main(["hazard", "--law", "shifted:0.01,3,300", *flags]) == 0
        tau, h, _ = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
        law = ShiftedGamma(0.01, 3, 300.0)
        want = hazard_pprd(Constant(20.0), law, np.zeros_like(tau), tau) / 20.0
        np.testing.assert_allclose(h, want, rtol=1e-15, atol=0.0)
        # the grammar knows the new kind's form too
        assert cli.main(["hazard", "--law", "shifted:0.01,3", *flags]) == 2
        assert "| shifted:s,n,beta, got 'shifted:0.01,3'" in capsys.readouterr().err


class Generic(DeadTimeLaw):
    """Only the required methods of ``law``: everything else runs the base body."""

    def __init__(self, law):
        self.law = law

    def survivor(self, x):
        return self.law.survivor(x)

    def density(self, x):
        return self.law.density(x)

    def quantile(self, q):
        return self.law.quantile(q)


def _table():
    ref = GammaDeadTime(3, 50.0)
    x = np.linspace(0.0, ref.quantile(1 - 1e-13), 4001)
    pdf = ref.density(x)
    return TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x))


GAMMAS = [GammaDeadTime(0, 40.0), GammaDeadTime(3, 50.0), GammaDeadTime(10, 137.5),
          GammaDeadTime(50, 637.5)]


class TestOverridesMatchTheGenericBodies:
    """Each closed form or own grid against the base class's quadrature.

    A fixed dead time has no density, so of its overrides only ``q_k`` and
    the survivor weights have a generic counterpart.
    """

    @pytest.mark.parametrize(
        "law, tol",
        [(FixedDeadTime(0.02), 1e-4), (_table(), 1e-7)] + [(g, 1e-8) for g in GAMMAS],
        ids=["fixed", "table", "gamma0", "gamma3", "gamma10", "gamma50"],
    )
    def test_survivor_transform(self, law, tol):
        omega = 2.0 * math.pi * 5.0
        got = law.survivor_transform(omega, range(17))
        want = Generic(law).survivor_transform(omega, range(17))
        assert np.max(np.abs(got - want)) <= tol * law.mean()

    def test_fixed_survivor_weights(self):
        # both integrate the survivor to the mean: the trapezoid exactly, Simpson
        # within one step, as the survivor drops to 0 at the window's last node
        law, h = FixedDeadTime(0.02), 0.02 / 64
        got, want = law.survivor_weights(h), Generic(law).survivor_weights(h)
        assert got.size == want.size == 65
        assert got.sum() == pytest.approx(law.mean(), rel=1e-12)
        assert want.sum() == pytest.approx(law.mean(), abs=h)

    def test_table_density(self):
        law = _table()
        x, pdf = Generic(law).density_table()
        raw = np.interp(x, *law.density_table())
        # the base body rescales its samples to unit trapezoid mass
        np.testing.assert_array_equal(raw * ((1.0 - law.atom0) / np.trapezoid(raw, x)), pdf)

    @pytest.mark.parametrize("law", GAMMAS, ids=["gamma0", "gamma3", "gamma10", "gamma50"])
    def test_gamma_closed_forms(self, law):
        generic = Generic(law)
        assert law.std() == pytest.approx(generic.std(), rel=1e-9)
        u = np.linspace(0.01, 0.99, 99)
        got = law.length_biased_quantile(u)
        assert np.max(np.abs(got - generic.length_biased_quantile(u))) <= 1e-5 * law.mean()
        b = np.linspace(0.0, 3.0 * law.support_window(), 7)
        for share in (0.0, 0.3, 0.9):
            c = share * law.rate
            assert law.tilted_closed_form(c)
            for a in (0.0, 0.4 * b):
                got = law.tilted_integral(c, a, b, c * b)
                want = generic.tilted_integral(c, a, b, c * b)
                assert np.max(np.abs(got - want)) <= 5e-5
        assert not law.tilted_closed_form(law.rate)


@st.composite
def _tables(draw):
    """Tables on non-uniform nodes, from zero or from a first node past it, with
    or without an atom at zero."""
    n = draw(st.integers(2, 40))
    gaps = draw(st.lists(st.floats(1e-4, 1.0), min_size=n - 1, max_size=n - 1))
    start = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    x = start + np.concatenate(([0.0], np.cumsum(gaps)))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    mass = np.trapezoid(raw, x)
    if not mass > 1e-3:
        raw, mass = np.ones(n), x[-1] - x[0]
    atom = draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 0.99))
    return TabulatedDeadTime(x, raw * ((1.0 - atom) / mass), atom_at_zero=atom)


_LAWS = st.one_of(
    _tables(),
    st.builds(FixedDeadTime, st.just(0.0) | st.floats(0.0, 10.0)),
    st.builds(GammaDeadTime, st.integers(0, 200), st.floats(1e-3, 1e4)),
)


class TestOneMean:
    """``mean()`` is ``q_0``, and ``atom0`` is ``1 - S(0)``, for every law."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(law=_LAWS, omega=st.floats(1e-3, 1e4))
    @example(law=FixedDeadTime(0.0), omega=1.0)
    @example(law=GammaDeadTime(200, 1e-3), omega=1.0)
    def test_mean_is_q0_bit_for_bit(self, law, omega):
        assert law.mean() == law.survivor_transform(omega, [0])[0].real
        if isinstance(law, TabulatedDeadTime):
            return  # a table keeps the atom it was given, not 1 - (1 - atom)
        assert law.atom0 == 1.0 - law.survivor(0.0)
        assert law.atom0 == (1.0 if law.fixed_duration == 0.0 else 0.0)

    def test_table_equilibria_agree_on_the_long_lognormal_law(self):
        # the 524,289-node law of `represent --process lognormal:0,0.8,0.1`: the
        # delay integrator's equilibrium and the harmonic alpha_0 read one mean
        spec = RenewalSpec.from_lognormal(0.0, 0.8, 0.1)
        law = dead_time_from_interval(spec, lognormal_minimal_rate(0.0, 0.8, 0.1)).law
        assert law.x.size == 524_289
        lam = 1.0 / (1.0 / 5.0 - law.mean())
        omega = angular_frequency(50.0)
        system = HarmonicSystem(omega, 4, law, signal_spectrum(Constant(lam), omega, 4))
        alpha_0 = solve_active_spectrum(system).coefficient(0)
        assert equilibrium_history(lam, law.mean()).active(0.0) == alpha_0.real


class TestEachHarmonicAlone:
    """A law's ``q_k`` does not depend on the other harmonics of its call, so
    a harmonic problem can grow one ladder of them rather than start afresh."""

    X_END = float(_table().x[-1])
    CASES = {
        "fixed": (FixedDeadTime(0.08), 2.0 * math.pi * 7.0),
        "gamma": (GammaDeadTime(10, 137.5), 2.0 * math.pi * 7.0),
        "table-by-parts": (_table(), 2.0 * math.pi * 7.0),
        # |k omega x_end| < 1 up to k = 19, so only the extension leaves the series
        "table-series": (_table(), 0.05 / X_END),
        "generic": (ShiftedGamma(0.01, 3, 300.0), 2.0 * math.pi * 7.0),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bits_do_not_depend_on_the_other_harmonics(self, name):
        law, omega = self.CASES[name]
        ks = list(range(-3, 13))
        shuffled = [int(k) for k in np.random.default_rng(5).permutation(ks)]
        extended = shuffled + [40, 25, -31, 0]
        for asked in (ks, shuffled, extended):
            got = law.survivor_transform(omega, asked)
            alone = np.array([law.survivor_transform(omega, [k])[0] for k in asked])
            assert np.array_equal(got.view(np.int64), alone.view(np.int64))


class CountingGamma(GammaDeadTime):
    """A gamma law that counts its survivor's evaluations at zero, the reads of ``atom0``."""

    zero_reads = 0

    def survivor(self, x):
        if np.ndim(x) == 0 and float(x) == 0.0:
            type(self).zero_reads += 1
        return super().survivor(x)


class TestRowBlocks:
    """The general recovery route reduces each row alone, so the row blocks it
    runs in move no bit, and the law's atom is read once whatever their count."""

    LAWS = {"gamma": GammaDeadTime(10, 137.5), "table": _table(),
            "shifted": ShiftedGamma(0.01, 3, 300.0)}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(LAWS)),
        kind=st.sampled_from(["constant", "cosine"]),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(name="gamma", kind="constant", n=40, seed=0)
    @example(name="table", kind="cosine", n=17, seed=1)
    @example(name="shifted", kind="constant", n=9, seed=2)
    def test_blocks_move_no_bit(self, name, kind, n, seed):
        law = self.LAWS[name]
        # above the gamma rate, so no law has its closed tilt here
        sig = Constant(900.0) if kind == "constant" else Cosine(600.0, 300.0, 3.0)
        rng = np.random.default_rng(seed)
        # ages out to four support windows, so the piece past the window runs too
        tau = rng.uniform(0.0, 4.0 * law.support_window(), n)
        t = rng.uniform(0.0, 0.5, n)
        a = rng.uniform(0.0, 0.5, n) * tau

        def run():
            return (hazard_pprd(sig, law, t, tau),
                    law.tilted_integral(900.0, a, tau, 900.0 * tau))

        with mock.patch.object(core, "_BLOCK_ELEMENTS", 1 << 62):
            whole = run()
        for rows in (1, 7, None):
            size = core._BLOCK_ELEMENTS if rows is None else rows * 513
            with mock.patch.object(core, "_BLOCK_ELEMENTS", size):
                for got, want in zip(run(), whole):
                    np.testing.assert_array_equal(got, want)

    def test_atom_is_read_once_whatever_the_block_count(self):
        law = CountingGamma(10, 137.5)
        tau = np.linspace(0.0, 4.0 * law.support_window(), 60)
        CountingGamma.zero_reads = 0
        with mock.patch.object(core, "_BLOCK_ELEMENTS", 513):
            for _ in range(3):
                hazard_pprd(Constant(900.0), law, 0.0, tau)
        assert CountingGamma.zero_reads == 1
