"""Tests for the electron EOS, assembled Helmholtz EOS, and gamma law."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.util.constants import AVOGADRO, BOLTZMANN, C_LIGHT
from repro.util.errors import ConvergenceError, PhysicsError
from repro.physics.eos import (
    CO_WD,
    HYBRID_CONE_WD,
    NSE_ASH,
    Composition,
    GammaLawEOS,
    HelmholtzEOS,
)
from repro.physics.eos.apply import composition_from_species
from repro.physics.eos.coulomb import coulomb_corrections, coupling_gamma
from repro.physics.eos.electron import (
    cold_degenerate_pressure,
    electron_state,
    solve_eta,
)
from repro.physics.eos.invert import (
    _newton_bisect,
    invert_dens_eint,
    invert_dens_pres,
)
from repro.physics.eos.ion import ion_energy, ion_pressure


@pytest.fixture(scope="module")
def eos():
    return HelmholtzEOS()


class TestComposition:
    def test_co_wd(self):
        assert CO_WD.abar == pytest.approx(13.714285714, rel=1e-9)
        assert CO_WD.ye == pytest.approx(0.5)

    def test_hybrid(self):
        assert HYBRID_CONE_WD.ye == pytest.approx(0.5)
        assert 12.0 < HYBRID_CONE_WD.abar < 20.0

    def test_nse_ash_ye(self):
        assert NSE_ASH.ye == pytest.approx(0.5)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(PhysicsError):
            Composition.from_fractions(c12=0.5, o16=0.2)

    def test_unknown_isotope(self):
        with pytest.raises(PhysicsError):
            Composition.from_fractions(unobtainium=1.0)


class TestElectronState:
    def test_cold_degenerate_pressure_match(self):
        rho_ye = np.array([1e5, 1e7, 1e9])
        state = electron_state(rho_ye, 1e5)
        np.testing.assert_allclose(state.pressure,
                                   cold_degenerate_pressure(rho_ye), rtol=1e-5)

    def test_nondegenerate_ideal_gas(self):
        state = electron_state(np.array([1.0]), 1e7)
        nkt = 1.0 * AVOGADRO * BOLTZMANN * 1e7
        assert state.pressure[0] == pytest.approx(nkt, rel=1e-3)

    def test_pair_plasma(self):
        """At T ~ 5e9 K and low density, positrons nearly equal electrons."""
        state = electron_state(np.array([10.0]), 5e9)
        assert state.n_pos[0] / state.n_ele[0] > 0.99

    def test_charge_neutrality(self):
        rho_ye = np.array([1e2, 1e6, 1e9])
        state = electron_state(rho_ye, 1e9)
        np.testing.assert_allclose(state.n_ele - state.n_pos,
                                   rho_ye * AVOGADRO, rtol=1e-9)

    def test_eta_monotone_in_density(self):
        eta = solve_eta(np.array([1e4, 1e6, 1e8]), 1e8)
        assert eta[0] < eta[1] < eta[2]

    def test_entropy_positive(self):
        state = electron_state(np.array([1e2, 1e6]), 1e9)
        assert (state.entropy_density > 0).all()


class TestIonRadiation:
    def test_ion_pressure_ideal(self):
        p = ion_pressure(1e6, 1e8, abar=12.0)
        assert p == pytest.approx(1e6 * AVOGADRO * BOLTZMANN * 1e8 / 12.0)

    def test_ion_energy_three_halves(self):
        e = ion_energy(1e6, 1e8, abar=12.0)
        p = ion_pressure(1e6, 1e8, abar=12.0)
        assert e == pytest.approx(1.5 * p / 1e6)

    def test_coulomb_negative_when_coupled(self):
        """WD interior: Gamma >> 1 -> binding (negative) corrections."""
        g = coupling_gamma(1e9, 1e8, CO_WD.abar, CO_WD.zbar)
        assert g > 10.0
        p_c, e_c = coulomb_corrections(1e9, 1e8, CO_WD.abar, CO_WD.zbar)
        assert p_c < 0 and e_c < 0

    def test_coulomb_vanishes_when_weak(self):
        p_c, e_c = coulomb_corrections(1e-3, 1e9, CO_WD.abar, CO_WD.zbar)
        p_ideal = ion_pressure(1e-3, 1e9, CO_WD.abar)
        assert abs(p_c) < 1e-2 * p_ideal


class TestHelmholtz:
    def test_wd_core_is_degeneracy_dominated(self, eos):
        """At rho=2e9, T=1e8 the pressure is overwhelmingly electronic and
        nearly temperature-independent."""
        r_cold = eos.eos_dt(2e9, 1e7, CO_WD.abar, CO_WD.zbar)
        r_warm = eos.eos_dt(2e9, 1e8, CO_WD.abar, CO_WD.zbar)
        assert abs(r_warm.pres[0] / r_cold.pres[0] - 1.0) < 0.01
        assert r_warm.pres[0] == pytest.approx(
            cold_degenerate_pressure(1e9), rel=0.05)

    def test_gamc_in_physical_range(self, eos):
        dens = np.logspace(0, 9, 30)
        r = eos.eos_dt(dens, 1e8, CO_WD.abar, CO_WD.zbar)
        assert (r.gamc > 1.0).all()
        assert (r.gamc < 2.7).all()

    def test_relativistic_degenerate_gamma_four_thirds(self, eos):
        r = eos.eos_dt(5e9, 1e7, CO_WD.abar, CO_WD.zbar)
        assert r.gamc[0] == pytest.approx(4.0 / 3.0, abs=0.03)

    def test_sound_speed_below_light_in_wd_regime(self, eos):
        """Within the Newtonian code's validity domain (P << rho c^2 — all
        of a white-dwarf interior) the sound speed stays subluminal."""
        dens = np.logspace(1, 10, 40)
        r = eos.eos_dt(dens, 1e9, CO_WD.abar, CO_WD.zbar)
        assert (r.cs < C_LIGHT).all()

    def test_pressure_monotone_in_density(self, eos):
        dens = np.logspace(2, 9, 40)
        r = eos.eos_dt(dens, 1e8, CO_WD.abar, CO_WD.zbar)
        assert (np.diff(r.pres) > 0).all()

    def test_energy_monotone_in_temperature(self, eos):
        temps = np.logspace(6, 9.8, 30)
        r = eos.eos_dt(np.full(30, 1e7), temps, CO_WD.abar, CO_WD.zbar)
        assert (np.diff(r.eint) > 0).all()

    def test_cv_consistent_with_energy_derivative(self, eos):
        """cv from the splines must match a finite difference of eint."""
        dens, t = 1e7, 2e8
        h = t * 1e-4
        e_hi = eos.eos_dt(dens, t + h, CO_WD.abar, CO_WD.zbar).eint[0]
        e_lo = eos.eos_dt(dens, t - h, CO_WD.abar, CO_WD.zbar).eint[0]
        cv = eos.eos_dt(dens, t, CO_WD.abar, CO_WD.zbar).cv[0]
        assert cv == pytest.approx((e_hi - e_lo) / (2 * h), rel=2e-2)

    def test_rejects_negative_density(self, eos):
        with pytest.raises(PhysicsError):
            eos.eos_dt(-1.0, 1e8, CO_WD.abar, CO_WD.zbar)

    def test_eint_cv_fast_path_matches(self, eos):
        dens = np.logspace(3, 9, 16)
        temp = np.full(16, 3e8)
        full = eos.eos_dt(dens, temp, CO_WD.abar, CO_WD.zbar)
        e, cv = eos.eint_cv(dens, temp, CO_WD.abar, CO_WD.zbar)
        # both paths share the table's evaluator, so they agree exactly
        np.testing.assert_array_equal(e, full.eint)
        np.testing.assert_array_equal(cv, full.cv)

    def test_table_output_shapes_follow_input(self, eos):
        scalar = eos.table.evaluate(1e6, 1e8)
        assert all(np.shape(v) == () for v in scalar.values())
        for shape in [(5,), (3, 4)]:
            rho_ye = np.full(shape, 1e6)
            out = eos.table.evaluate(rho_ye, 1e8)
            assert all(v.shape == shape for v in out.values())
            assert all(v.shape == shape
                       for v in eos.table.log_energy(rho_ye, 1e8))
        lg_u, dlnu_dlnt = eos.table.log_energy(1e6, 1e8)
        assert lg_u.shape == dlnu_dlnt.shape == ()


class TestInversion:
    def test_round_trip_dens_ei(self, eos):
        dens = np.logspace(3, 9, 50)
        temp = np.logspace(7, 9.3, 50)
        r = eos.eos_dt(dens, temp, CO_WD.abar, CO_WD.zbar)
        t2, iters = invert_dens_eint(eos, dens, r.eint, CO_WD.abar, CO_WD.zbar)
        np.testing.assert_allclose(t2, temp, rtol=1e-6)
        assert iters.max() < 60

    def test_round_trip_with_guess_faster(self, eos):
        dens = np.logspace(4, 9, 30)
        temp = np.full(30, 5e8)
        r = eos.eos_dt(dens, temp, CO_WD.abar, CO_WD.zbar)
        _, it_cold = invert_dens_eint(eos, dens, r.eint, CO_WD.abar, CO_WD.zbar)
        _, it_warm = invert_dens_eint(eos, dens, r.eint, CO_WD.abar,
                                      CO_WD.zbar, temp_guess=temp * 1.01)
        assert it_warm.sum() <= it_cold.sum()

    def test_cold_energy_clamps_to_floor(self, eos):
        """Degenerate matter colder than the table floor clamps, not crashes
        (FLASH's eos does the same)."""
        r = eos.eos_dt(1e9, eos.temp_min, CO_WD.abar, CO_WD.zbar)
        t2, _ = invert_dens_eint(eos, np.array([1e9]), r.eint * 0.999999,
                                 CO_WD.abar, CO_WD.zbar)
        assert t2[0] == pytest.approx(eos.temp_min)

    def test_round_trip_dens_pres(self, eos):
        dens = np.logspace(3, 7, 20)
        temp = np.full(20, 8e8)
        r = eos.eos_dt(dens, temp, CO_WD.abar, CO_WD.zbar)
        t2, _ = invert_dens_pres(eos, dens, r.pres, CO_WD.abar, CO_WD.zbar)
        np.testing.assert_allclose(t2, temp, rtol=1e-5)

    def test_eos_de_interface(self, eos):
        r0 = eos.eos_dt(1e8, 3e8, CO_WD.abar, CO_WD.zbar)
        r1 = eos.eos_de(1e8, r0.eint, CO_WD.abar, CO_WD.zbar)
        assert r1.temp[0] == pytest.approx(3e8, rel=1e-6)
        assert r1.pres[0] == pytest.approx(r0.pres[0], rel=1e-6)


# --- reference inversion: whole-array passes with an ``active`` mask ---
# The shipped solver evaluates only the zones still moving; these copies
# evaluate every zone on every pass and must give the same bits.


def _oracle_newton_bisect(f, lo, hi, max_iter, rtol):
    t = np.sqrt(lo * hi)  # geometric-mean start
    iters = np.zeros(t.shape, dtype=np.int64)
    active = np.ones(t.shape, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        resid, dresid = f(t)
        # maintain bracket
        neg = resid < 0.0
        lo = np.where(active & neg, t, lo)
        hi = np.where(active & ~neg, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dresid != 0.0, -resid / dresid, 0.0)
        t_new = t + step
        # zones whose Newton step escapes the bracket bisect instead
        escaped = (t_new <= lo) | (t_new >= hi) | ~np.isfinite(t_new)
        t_new = np.where(escaped, 0.5 * (lo + hi), t_new)
        moved = np.abs(t_new - t) > rtol * t
        t = np.where(active, t_new, t)
        iters += active
        active = active & moved
    if active.any():
        raise ConvergenceError(
            f"EOS inversion: {int(active.sum())} zones failed to converge"
        )
    return t, iters


def _oracle_dens_eint(eos, dens, eint, abar, zbar, temp_guess=None,
                      max_iter=60, rtol=1.0e-8):
    dens = np.atleast_1d(np.asarray(dens, dtype=np.float64))
    eint = np.broadcast_to(np.asarray(eint, dtype=np.float64), dens.shape)
    lo = np.full(dens.shape, eos.temp_min)
    hi = np.full(dens.shape, eos.temp_max)
    if temp_guess is not None:
        guess = np.clip(np.asarray(temp_guess, dtype=np.float64),
                        eos.temp_min, eos.temp_max)
        lo = np.maximum(lo, guess / 100.0)
        hi = np.minimum(hi, guess * 100.0)
    energy_of = eos.eint_cv

    def f(t):
        e, cv = energy_of(dens, t, abar, zbar)
        return e - eint, cv

    r_lo = energy_of(dens, lo, abar, zbar)[0] - eint
    r_hi = energy_of(dens, hi, abar, zbar)[0] - eint
    lo = np.where(r_lo > 0.0, np.full_like(lo, eos.temp_min), lo)
    hi = np.where(r_hi < 0.0, np.full_like(hi, eos.temp_max), hi)
    r_lo2 = energy_of(dens, lo, abar, zbar)[0] - eint
    clamped_low = r_lo2 >= 0.0
    r_hi2 = energy_of(dens, hi, abar, zbar)[0] - eint
    clamped_high = r_hi2 <= 0.0

    temp, iters = _oracle_newton_bisect(f, lo, hi, max_iter, rtol)
    temp = np.where(clamped_low, eos.temp_min, temp)
    temp = np.where(clamped_high, eos.temp_max, temp)
    return temp, iters


def _oracle_dens_pres(eos, dens, pres, abar, zbar, max_iter=60,
                      rtol=1.0e-8):
    dens = np.atleast_1d(np.asarray(dens, dtype=np.float64))
    pres = np.broadcast_to(np.asarray(pres, dtype=np.float64), dens.shape)
    lo = np.full(dens.shape, eos.temp_min)
    hi = np.full(dens.shape, eos.temp_max)

    def f(t):
        r = eos.eos_dt(dens, t, abar, zbar)
        dpdt = r.dpt if r.dpt is not None else r.pres / t
        return r.pres - pres, dpdt

    r_lo = eos.eos_dt(dens, lo, abar, zbar).pres - pres
    clamped_low = r_lo >= 0.0
    temp, iters = _oracle_newton_bisect(f, lo, hi, max_iter, rtol)
    temp = np.where(clamped_low, eos.temp_min, temp)
    return temp, iters


def _same_outcome(run, oracle):
    """Both raise the same ConvergenceError, or give identical bits."""
    try:
        expected = oracle()
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError, match=str(exc)):
            run()
        return
    temp, iters = run()
    np.testing.assert_array_equal(temp, expected[0])
    np.testing.assert_array_equal(iters, expected[1])


#: one zone: log10 rho, log10 T, ash fraction, where its target lies
#: (inside the table, below the floor or above the ceiling) and log10 of
#: its guess over the true T (beyond +-2 the guess bracket is reset)
_ZONE = st.tuples(st.floats(2.0, 9.5), st.floats(5.0, 10.2),
                  st.floats(0.0, 1.0),
                  st.sampled_from(("inside", "cold", "hot")),
                  st.floats(-3.0, 3.0))
_EDGES = [(9.0, 7.0, 0.0, "cold", 0.0), (3.0, 9.0, 1.0, "hot", 0.5),
          (7.0, 8.0, 0.3, "inside", 2.7), (5.0, 7.0, 0.8, "inside", -2.9),
          (8.0, 9.3, 0.5, "inside", 0.01)]


def _targets(eos, zones, field):
    """(dens, target, abar, zbar, true T) for a list of ``_ZONE``s."""
    lg_dens, lg_temp, phi, kind, _ = (np.array(c) for c in zip(*zones))
    dens, temp = 10.0**lg_dens, 10.0**lg_temp
    abar, zbar = composition_from_species(None, {"fl01": phi}, CO_WD,
                                          NSE_ASH)
    target = getattr(eos.eos_dt(dens, temp, abar, zbar), field)
    floor = getattr(eos.eos_dt(dens, eos.temp_min, abar, zbar), field)
    ceiling = getattr(eos.eos_dt(dens, eos.temp_max, abar, zbar), field)
    target = np.where(kind == "cold", floor - 1e-3 * np.abs(floor), target)
    target = np.where(kind == "hot", ceiling + 1e-3 * np.abs(ceiling),
                      target)
    return dens, target, abar, zbar, temp


class TestInversionMatchesWholeArrayPasses:
    @given(zones=st.lists(_ZONE, min_size=1, max_size=16),
           use_guess=st.booleans())
    @example(zones=_EDGES, use_guess=True)
    @example(zones=_EDGES, use_guess=False)
    @settings(max_examples=60, deadline=None)
    def test_dens_eint_bit_identical(self, eos, zones, use_guess):
        dens, eint, abar, zbar, temp = _targets(eos, zones, "eint")
        guess = None
        if use_guess:
            guess = temp * 10.0**np.array([z[4] for z in zones])
        _same_outcome(
            lambda: invert_dens_eint(eos, dens, eint, abar, zbar,
                                     temp_guess=guess),
            lambda: _oracle_dens_eint(eos, dens, eint, abar, zbar,
                                      temp_guess=guess))

    @given(zones=st.lists(_ZONE, min_size=1, max_size=16))
    @example(zones=_EDGES)
    @settings(max_examples=40, deadline=None)
    def test_dens_pres_bit_identical(self, eos, zones):
        dens, pres, abar, zbar, _ = _targets(eos, zones, "pres")
        _same_outcome(
            lambda: invert_dens_pres(eos, dens, pres, abar, zbar),
            lambda: _oracle_dens_pres(eos, dens, pres, abar, zbar))

    def test_edge_zones_are_clamped_and_reset(self, eos):
        """The fixed edge example really reaches each special path."""
        dens, eint, abar, zbar, temp = _targets(eos, _EDGES, "eint")
        guess = temp * 10.0**np.array([z[4] for z in _EDGES])
        t, _ = invert_dens_eint(eos, dens, eint, abar, zbar,
                                temp_guess=guess)
        assert t[0] == eos.temp_min and t[1] == eos.temp_max
        # guesses 10^2.7 too hot and 10^-2.9 too cold: the bound the
        # guess set is reset to the table edge and the root still found
        np.testing.assert_allclose(t[2:], temp[2:], rtol=1e-6)

    def test_max_iter_too_small_reports_unconverged_zones(self, eos):
        dens = np.logspace(4, 8, 7)
        r = eos.eos_dt(dens, 3e8, CO_WD.abar, CO_WD.zbar)
        with pytest.raises(ConvergenceError,
                           match="EOS inversion: 7 zones failed"):
            invert_dens_eint(eos, dens, r.eint, CO_WD.abar, CO_WD.zbar,
                             max_iter=1)
        with pytest.raises(ConvergenceError,
                           match="EOS inversion: 7 zones failed"):
            invert_dens_pres(eos, dens, r.pres, CO_WD.abar, CO_WD.zbar,
                             max_iter=1)

    def test_scalar_composition(self, eos):
        dens = np.logspace(3, 9, 12)
        temp = np.logspace(7, 9.5, 12)
        r = eos.eos_dt(dens, temp, NSE_ASH.abar, NSE_ASH.zbar)
        args = (eos, dens, r.eint, NSE_ASH.abar, NSE_ASH.zbar)
        _same_outcome(lambda: invert_dens_eint(*args, temp_guess=temp),
                      lambda: _oracle_dens_eint(*args, temp_guess=temp))
        args = (eos, dens, r.pres, NSE_ASH.abar, NSE_ASH.zbar)
        _same_outcome(lambda: invert_dens_pres(*args),
                      lambda: _oracle_dens_pres(*args))
        t, _ = invert_dens_eint(eos, dens, r.eint, NSE_ASH.abar,
                                NSE_ASH.zbar)
        np.testing.assert_allclose(t, temp, rtol=1e-6)

    def test_zone_shape_is_kept(self, eos):
        dens, eint, abar, zbar, temp = _targets(eos, _EDGES * 2, "eint")
        flat = invert_dens_eint(eos, dens, eint, abar, zbar, temp_guess=temp)
        grid = invert_dens_eint(eos, dens.reshape(2, 5), eint.reshape(2, 5),
                                abar.reshape(2, 5), zbar.reshape(2, 5),
                                temp_guess=temp.reshape(2, 5))
        for got, want in zip(grid, flat):
            assert got.shape == (2, 5)
            np.testing.assert_array_equal(got.ravel(), want)

    def test_no_active_zones_returns_at_once(self, eos):
        def never(t, idx):
            raise AssertionError("residual evaluated with no active zone")

        empty = np.empty(0)
        t, iters = _newton_bisect(never, empty, empty, 60, 1e-8)
        assert t.shape == iters.shape == (0,)
        t, iters = invert_dens_eint(eos, empty, empty, CO_WD.abar,
                                    CO_WD.zbar)
        assert t.shape == iters.shape == (0,)


class TestGammaLaw:
    def test_pressure_relation(self):
        eos = GammaLawEOS(gamma=1.4)
        r = eos.eos_de(np.array([2.0]), np.array([3.0]))
        assert r.pres[0] == pytest.approx(0.4 * 2.0 * 3.0)
        assert r.gamc[0] == 1.4

    def test_sound_speed(self):
        eos = GammaLawEOS(gamma=5.0 / 3.0)
        r = eos.eos_de(np.array([1.0]), np.array([1.0]))
        assert r.cs[0] == pytest.approx(np.sqrt(5.0 / 3.0 * r.pres[0]))

    def test_dt_de_round_trip(self):
        eos = GammaLawEOS(gamma=1.4)
        r = eos.eos_dt(np.array([1.0]), np.array([1e4]))
        r2 = eos.eos_de(np.array([1.0]), r.eint)
        assert r2.temp[0] == pytest.approx(1e4)

    def test_dp_mode(self):
        eos = GammaLawEOS(gamma=1.4)
        r = eos.eos_dp(np.array([2.0]), np.array([10.0]))
        assert r.eint[0] == pytest.approx(10.0 / (0.4 * 2.0))

    def test_invalid_gamma(self):
        with pytest.raises(PhysicsError):
            GammaLawEOS(gamma=1.0)

    @given(dens=st.floats(1e-5, 1e5), eint=st.floats(1e-5, 1e15))
    @settings(max_examples=50)
    def test_game_equals_gamma(self, dens, eint):
        eos = GammaLawEOS(gamma=1.4)
        r = eos.eos_de(np.array([dens]), np.array([eint]))
        assert r.game[0] == pytest.approx(1.4)
