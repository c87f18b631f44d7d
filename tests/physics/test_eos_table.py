"""The electron table's spline evaluator against FITPACK.

The table evaluates its FITPACK fits in NumPy, with FITPACK's arithmetic
in FITPACK's order.  These tests hold it to ``RectBivariateSpline.ev`` on
the same table arrays, bit for bit, for every quantity it returns.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import RectBivariateSpline

from repro.physics.eos import table as table_mod
from repro.physics.eos.table import ElectronTable, default_table

TINY = dict(n_rhoye=8, n_temp=6)
BLOCK = table_mod._BLOCK
#: the seven quantities, as (table array, x derivative, y derivative)
QUANTITIES = [("lg_pres", 0, 0), ("lg_ener", 0, 0), ("entr", 0, 0),
              ("eta", 0, 0), ("lg_pres", 1, 0), ("lg_pres", 0, 1),
              ("lg_ener", 0, 1)]
#: sizes around NumPy's pairwise summation and around the block size
SIZES = list(range(1, 18)) + [BLOCK - 1, BLOCK, BLOCK + 1]


@pytest.fixture(scope="module", params=["default", "tiny"])
def table(request):
    return default_table() if request.param == "default" \
        else ElectronTable.build(**TINY)


def _fits(table):
    kx = min(3, len(table.lg_rhoye) - 1)
    ky = min(3, len(table.lg_temp) - 1)
    return {name: RectBivariateSpline(table.lg_rhoye, table.lg_temp,
                                      getattr(table, name), kx=kx, ky=ky)
            for name in ("lg_pres", "lg_ener", "entr", "eta")}


def _oracle(fits, x, y):
    return [fits[name].ev(x, y, dx=dx, dy=dy)
            for name, dx, dy in QUANTITIES]


def _kernel(table, x, y):
    return [q for group in table._at(x, y, table._all) for q in group]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def _points(table, seed, n, on_knots, outside):
    """``n`` points: a share exactly on grid lines, a share beyond the
    table edges (which both evaluators clamp), the rest inside."""
    rng = np.random.default_rng(seed)
    xs, ys = table.lg_rhoye, table.lg_temp
    pad_x, pad_y = xs[-1] - xs[0], ys[-1] - ys[0]
    x = rng.uniform(xs[0], xs[-1], n)
    y = rng.uniform(ys[0], ys[-1], n)
    knot = rng.random(n) < on_knots
    x[knot] = rng.choice(xs, knot.sum())
    knot = rng.random(n) < on_knots
    y[knot] = rng.choice(ys, knot.sum())
    out = rng.random(n) < outside
    x[out] = np.where(rng.random(out.sum()) < 0.5, xs[0], xs[-1]) \
        + rng.uniform(-pad_x, pad_x, out.sum())
    out = rng.random(n) < outside
    y[out] = np.where(rng.random(out.sum()) < 0.5, ys[0], ys[-1]) \
        + rng.uniform(-pad_y, pad_y, out.sum())
    return x, y


class TestMatchesFitpack:
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES),
           on_knots=st.sampled_from([0.0, 0.3, 1.0]),
           outside=st.sampled_from([0.0, 0.3, 1.0]))
    @example(seed=0, n=1, on_knots=1.0, outside=0.0)
    @example(seed=0, n=BLOCK + 1, on_knots=0.3, outside=0.3)
    @settings(max_examples=60, deadline=None)
    def test_kernel_bitwise(self, table, seed, n, on_knots, outside):
        x, y = _points(table, seed, n, on_knots, outside)
        _assert_bitwise(_kernel(table, x, y), _oracle(_fits(table), x, y))

    def test_every_knot_and_corner(self, table):
        x, y = np.meshgrid(table.lg_rhoye, table.lg_temp, indexing="ij")
        x, y = x.ravel(), y.ravel()
        _assert_bitwise(_kernel(table, x, y), _oracle(_fits(table), x, y))

    def test_scalar_points(self, table):
        x, y = np.float64(table.lg_rhoye[2] + 0.1), np.float64(7.3)
        got = _kernel(table, x, y)
        assert all(g.shape == () for g in got)
        _assert_bitwise(got, _oracle(_fits(table), x, y))

    def test_empty(self, table):
        assert all(g.shape == (0,) for g in _kernel(table, [], []))

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES),
           outside=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_evaluate_and_log_energy(self, table, seed, n, outside):
        """The public calls: log10, clamp to the table, then the splines,
        as the table did with ``ev``."""
        lr, lt = _points(table, seed, n, 0.2, outside)
        rho_ye, temp = 10.0**lr, 10.0**lt
        x = np.clip(np.log10(rho_ye), table.lg_rhoye[0], table.lg_rhoye[-1])
        y = np.clip(np.log10(temp), table.lg_temp[0], table.lg_temp[-1])
        lg_p, lg_u, entr, eta, dp_dr, dp_dt, du_dt = \
            _oracle(_fits(table), x, y)
        got = table.evaluate(rho_ye, temp)
        _assert_bitwise(
            [got[k] for k in ("pres", "ener", "entr", "eta", "dlnp_dlnr",
                              "dlnp_dlnt", "dlnu_dlnt")],
            [10.0**lg_p, 10.0**lg_u, entr, eta, dp_dr, dp_dt, du_dt])
        _assert_bitwise(list(table.log_energy(rho_ye, temp)), [lg_u, du_dt])


@pytest.mark.parametrize("nx,ny", [(2, 5), (3, 4), (4, 3), (6, 2)])
def test_low_degree_grids(nx, ny):
    """Grids too short for cubics fit degree ``n - 1`` (1 or 2) per axis;
    the evaluator follows FITPACK there too, on arbitrary signed data.
    (FITPACK refuses the derivative of a linear spline, so those are not
    compared.)"""
    rng = np.random.default_rng(nx * 10 + ny)
    grid = dict(lg_rhoye=np.sort(rng.uniform(0, 5, nx)),
                lg_temp=np.sort(rng.uniform(4, 9, ny)))
    table = ElectronTable(**grid, **{name: rng.standard_normal((nx, ny))
                                     for name in ("lg_pres", "lg_ener",
                                                  "entr", "eta")})
    x, y = _points(table, nx * ny, 500, 0.2, 0.2)
    fits = _fits(table)
    kept = [i for i, (_, dx, dy) in enumerate(QUANTITIES)
            if dx < nx - 1 and dy < ny - 1]
    want = [fits[name].ev(x, y, dx=dx, dy=dy)
            for name, dx, dy in (QUANTITIES[i] for i in kept)]
    got = _kernel(table, x, y)
    _assert_bitwise([got[i] for i in kept], want)


def test_nbytes_counts_the_tabulated_arrays_only():
    """The perf model sizes the EOS gather from ``nbytes``: the
    evaluator's precomputed coefficients must not change it."""
    assert default_table().nbytes == 587_248
