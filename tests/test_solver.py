"""Mode evolution: convergence, conservation, causality, and the glued
static solution with a bounded compactly supported potential."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.currents import PowerU, ZeroU
from conelab.errors import (
    DomainTooSmall,
    InvalidInput,
    ModeNotSupported,
    RegionOutOfGrid,
    UnstableStep,
)
from conelab.fields import GridSpec, TensorSpline, exact_spherical_wave, static_multipole
from conelab.geometry import AdmissibleRegion
from conelab.solver import (
    MAX_STORED_SLICES,
    PAD,
    CauchyData,
    EvolutionResult,
    counterexample_build,
    solve,
    spherical_wave_data,
    _stored_steps,
)
from conelab.weights import Potential

from _oracles import box, leapfrog_full_width, traced_peak


# ---------------------------------------------------------------------------
# linear evolution against the closed-form spherical wave
# ---------------------------------------------------------------------------

def wave_error(dr, T=0.8, width=1.0, power=6):
    data = spherical_wave_data(width=width, power=power)
    res = solve(data, T=T, R=6.0, dr=dr, n=3)
    exact = exact_spherical_wave(width=width, power=power)
    t = res.times[-1]
    r = res.r
    u = 0.5 * (t - r)
    v = 0.5 * (t + r)
    return float(np.max(np.abs(res.slices[-1] - exact.value(u, v))))


def test_second_order_convergence():
    errs = [wave_error(dr) for dr in (0.02, 0.01, 0.005)]
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for rate in rates:
        assert abs(rate - 2.0) <= 0.3
    assert errs[-1] < 5e-4


def test_energy_drift_small():
    data = spherical_wave_data(width=1.0, power=6)
    res = solve(data, T=1.0, R=6.0, dr=0.01, n=3)
    assert res.energy_drift < 0.01


def test_finite_propagation_speed():
    # compact data of radius w must vanish beyond r = w + |t| exactly
    # (up to roundoff): the scheme's stencil honors the light cone
    width = 1.0
    data = spherical_wave_data(width=width, power=6)
    res = solve(data, T=1.0, R=8.0, dr=0.01, n=3)
    scale = np.max(np.abs(res.slices))
    for k, t in enumerate(res.times):
        outside = res.r > width + abs(t) + 2 * res.dr
        if np.any(outside):
            assert np.max(np.abs(res.slices[k][outside])) < 1e-10 * scale


def test_time_symmetry_of_even_data():
    # velocity-free data evolves symmetrically in t
    data = CauchyData(profile=lambda r: np.exp(-(r / 0.8) ** 2),
                      velocity=lambda r: np.zeros_like(r))
    res = solve(data, T=0.5, R=4.0, dr=0.01, n=3, support_radius=2.5)
    tpos = res.times >= 0
    sym = res.times[tpos]
    sp = TensorSpline(res.times, res.r, res.slices)
    a = sp.ev(sym, np.full_like(sym, 1.3))
    b = sp.ev(-sym, np.full_like(sym, 1.3))
    assert np.max(np.abs(a - b)) < 1e-6


BAD_WIDTHS = [-1, -0.5, 0, -0.0, math.inf, math.nan, None, "1"]


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_spherical_wave_data_needs_a_finite_positive_width(width):
    # a negative width squared away to the data of its absolute value
    with pytest.raises(InvalidInput, match="width"):
        spherical_wave_data(width=width)


@pytest.mark.parametrize("width", [1.4e154, 1e300, sys.float_info.max])
def test_spherical_wave_data_needs_a_width_with_a_finite_square(width):
    # the velocity's w**2 raised OverflowError past about 1.3e154
    with pytest.raises(InvalidInput, match="width must have a finite square"):
        spherical_wave_data(width=width)
    v = spherical_wave_data(width=1.3e154).velocity(np.array([0.5, 1e150]))
    assert np.all(np.isfinite(v))


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_exact_spherical_wave_needs_a_finite_positive_width(width):
    # width -1 gave the zero field: sympy read "X**2 < -1.0**2" as -(1.0**2)
    with pytest.raises(InvalidInput, match="width"):
        exact_spherical_wave(width=width)


# ---------------------------------------------------------------------------
# resampling onto exterior grids
# ---------------------------------------------------------------------------

def test_field_on_matches_exact_solution():
    data = spherical_wave_data(width=1.0, power=6)
    res = solve(data, T=1.0, R=6.0, dr=0.005, n=3)
    # strip |t| <= 0.904, 0.55 <= r <= 2.1 fits inside the evolution
    reg = AdmissibleRegion(0.25, 1.0, 0.6, 5.0 / 3.0)
    grid = GridSpec.from_region(reg, 48, 48, 3)
    fld = res.field_on(grid)
    exact = exact_spherical_wave(width=1.0, power=6)
    ref = exact.value(grid.U, grid.V)
    assert np.max(np.abs(fld.values - ref)) < 2e-4
    # the resampled field is numerically a wave solution too
    resid = box(fld).values
    ii, jj = grid.interior(2)
    assert np.max(np.abs(resid[ii, jj])) < 0.05


def test_evolve_path_never_imports_scipy():
    import conelab

    script = textwrap.dedent("""
        import sys
        import numpy as np
        import conelab, conelab.cli
        from conelab.fields import GridSpec
        from conelab.geometry import AdmissibleRegion
        from conelab.solver import counterexample_build, solve, spherical_wave_data
        res = solve(spherical_wave_data(), T=0.5, R=4.0, dr=0.02, n=3)
        grid = GridSpec.from_region(AdmissibleRegion(0.25, 1.0, 0.7, 1.4), 8, 8, 3)
        fld = res.field_on(grid)
        assert fld.values.shape == (8, 8)
        out = fld.evaluator().derivs2(grid.U[2:5, 3], grid.V[2:5, 3])
        assert len(out) == 6 and all(np.shape(d) == (3,) for d in out)
        assert abs(out[0] - fld.values[2:5, 3]).max() <= 1e-12 * abs(fld.values).max()
        bun = counterexample_build(n=3, a=6.0)
        assert abs(float(bun.beta(1.5))) > 0.0
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(conelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_field_on_builds_one_spline_per_result(monkeypatch):
    from conelab.solver import EvolutionResult

    res = solve(spherical_wave_data(), T=0.5, R=4.0, dr=0.02, n=3)
    whole = (0, len(res.times), 0, len(res.r))
    want = res.spline(whole)
    assert res.spline(whole) is not want  # spline() itself still builds anew
    built = []
    made = []
    real = EvolutionResult.spline

    def spy(self, window):
        built.append(self)
        made.append(real(self, window))
        return made[-1]

    monkeypatch.setattr(EvolutionResult, "spline", spy)
    reg = AdmissibleRegion(0.25, 1.0, 0.7, 1.4)
    for m in (8, 12, 16):
        grid = GridSpec.from_region(reg, m, m, 3)
        fld = res.field_on(grid)
        ref = made[0].ev(np.ravel(grid.T), np.ravel(grid.R)).reshape(grid.T.shape)
        assert fld.values.tobytes() == ref.tobytes()
    assert built == [res]


# the `solve` step of the benchmark's `evolve` workload
SOLVE_256 = dict(T=1.0, R=6.0, dr=0.002, n=3)
SOLVE_256_REGION = AdmissibleRegion(0.25, 1.0, 0.6, 1.6666667)


@pytest.fixture(scope="module")
def wave_256():
    return solve(spherical_wave_data(width=1.0, power=6), **SOLVE_256)


@pytest.mark.parametrize("m", [48, 256])
def test_windowed_fit_matches_full_strip(wave_256, m):
    res = replace(wave_256)  # a fresh resampling cache
    grid = GridSpec.from_region(SOLVE_256_REGION, m, m, 3)
    full = TensorSpline(res.times, res.r, res.slices).ev(
        np.ravel(grid.T), np.ravel(grid.R)).reshape(grid.T.shape)
    gap = np.max(np.abs(res.field_on(grid).values - full))
    assert gap <= 1e-20 * np.max(np.abs(res.slices))


def test_field_on_does_not_depend_on_call_order(wave_256):
    grids = [GridSpec.from_region(SOLVE_256_REGION, 48, 48, 3),
             GridSpec.from_region(AdmissibleRegion(0.2, 0.5, 0.3, 1.0), 40, 40, 3)]
    first, second = replace(wave_256), replace(wave_256)
    a = [first.field_on(g).values.tobytes() for g in grids]
    b = [second.field_on(g).values.tobytes() for g in reversed(grids)][::-1]
    assert a == b


def test_fitted_block_spans_the_grid_plus_pad(wave_256, monkeypatch):
    import conelab.solver

    blocks = []
    real = conelab.solver.TensorSpline
    monkeypatch.setattr(conelab.solver, "TensorSpline",
                        lambda x, y, z: blocks.append(np.shape(z)) or real(x, y, z))
    res = replace(wave_256)
    grid = GridSpec.from_region(SOLVE_256_REGION, 96, 96, 3)
    res.field_on(grid)
    # samples in the grid's span, counting the one bracketing it on each side
    span_t = np.count_nonzero((res.times > grid.T.min()) & (res.times < grid.T.max())) + 2
    span_r = np.count_nonzero((res.r > grid.R.min()) & (res.r < grid.R.max())) + 2
    [(nt, nr)] = blocks
    assert nt <= span_t + 2 * PAD and nr <= span_r + 2 * PAD
    assert nt * nr < res.slices.size / 4


def test_window_clips_at_the_edges_of_the_strip(monkeypatch):
    res = solve(spherical_wave_data(width=1.0, power=6), T=1.0, R=6.0, dr=0.01, n=3)
    # reaches t = 0.8 (fewer than PAD steps below T) and r = 0.063 (near
    # the origin), but stays more than PAD samples away from t = -T and R
    grid = GridSpec.from_region(AdmissibleRegion(1e-3, 0.09, 1.0, 9.0), 32, 32, 3)
    windows = []
    real = EvolutionResult.spline
    monkeypatch.setattr(EvolutionResult, "spline",
                        lambda self, window: windows.append(window) or real(self, window))
    fld = res.field_on(grid)
    i0 = np.flatnonzero(res.times <= grid.T.min())[-1] - PAD
    j1 = np.flatnonzero(res.r >= grid.R.max())[0] + 1 + PAD
    assert i0 > 0 and j1 < len(res.r)
    assert windows == [(i0, len(res.times), 0, j1)]
    full = TensorSpline(res.times, res.r, res.slices).ev(
        np.ravel(grid.T), np.ravel(grid.R)).reshape(grid.T.shape)
    assert np.max(np.abs(fld.values - full)) <= 1e-20 * np.max(np.abs(res.slices))


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


TIMES_SHA256 = {
    0.002: "d570efc4367e285831f205a356023823ef4b4cad7005fba6bb173bf3422ba946",
    0.001: "4e28dc721679c8bc20203e8f66efad42c8945f516dbd8d59a8b17a186d8237d3",
}


@pytest.mark.parametrize("dr, slices_sha256, drift_hex", [
    (0.002, "5fea6d2589fdc931d98035214478f3abb59abf1a8879716997d7e8450e4eafe2",
     "0x1.fe014a30e12c2p-17"),
    (0.001, "92b3feb574611a9daf26f15bf44b8c5cb1689577a73efd47fa41df50a18cc372",
     "0x1.fe0e6b91288c1p-19"),
])
def test_leapfrog_output_is_pinned_bitwise(dr, slices_sha256, drift_hex):
    # the benchmark's evolutions, pinned bit for bit: reordering any of the
    # stepper's floating-point operations moves them
    res = solve(spherical_wave_data(width=1.0, power=6), T=1.0, R=6.0, dr=dr, n=3)
    assert sha256(res.slices) == slices_sha256
    assert sha256(res.times) == TIMES_SHA256[dr]
    assert res.energy_drift.hex() == drift_hex


def test_odd_mode_leapfrog_is_pinned_bitwise():
    # ell = 1: mirror parity -1 and a nonzero lam / r^2 term.  The data sit
    # away from the origin and T is short, so the first cell stays quiet.
    data = CauchyData(profile=lambda r: np.exp(-((r - 2.0) / 0.3) ** 2),
                      velocity=lambda r: np.zeros_like(r), ell=1, label="dipole")
    res = solve(data, T=0.1, R=4.0, dr=0.01, n=3, support_radius=2.9)
    assert res.slices.shape == (25, 400)
    assert sha256(res.slices) == "55c5d2eaeb12d48bad32e35b9bae9d19cf843519d5884123c756e99b800155c7"
    assert sha256(res.times) == "47bdb12f61e94b5d2346678dea355d75ad4481e421d17500e6d5f20c12cc3974"
    assert res.energy_drift.hex() == "0x1.232d677f55213p-11"


def test_nonlinear_leapfrog_is_pinned_bitwise():
    # defocusing cubic term with a time-dependent potential: the stepper adds
    # the nonlinearity to the acceleration and keeps no energy
    data = CauchyData(profile=lambda r: 0.5 * np.exp(-(r / 0.7) ** 2),
                      velocity=lambda r: -0.3 * np.exp(-r ** 2))
    U = PowerU(-1, 3.0, Potential.power_of_f(0.25, amplitude=1.0))
    res = solve(data, T=0.5, R=4.0, dr=0.01, n=3, U=U, support_radius=2.5)
    assert res.slices.shape == (113, 400)
    assert sha256(res.slices) == "314f7653e889aaf6a2f793b5e38d947d7657876397d2136c3fda6b256b2b44ef"
    assert sha256(res.times) == "ad77b87158254f52e41d84d7485778089230f7a7a3bba9dde53037a46535e832"
    assert res.energy_drift.hex() == "nan"


def test_solve_holds_one_copy_of_the_slices():
    # the stored steps go straight into the result's array, on the columns
    # the data reach by T (1000 cells of support plus one per step, 1112
    # steps: 2112 of 6000): no per-step copies kept beside it, no second
    # array built from them, and no columns that stay zero
    res, peak = traced_peak(lambda: solve(spherical_wave_data(), T=1.0, R=6.0, dr=0.001, n=3))
    assert res.band.shape == (1023, 2112)
    assert peak <= 1.25 * res.band.nbytes
    assert res.slices.shape == (1023, 6000)


def test_field_on_holds_two_copies_of_the_window():
    # the csv-bundle sample of the benchmark's solve: the window's samples
    # and the coefficients fitted in place on one copy of them, with the
    # evaluation's temporaries one point block in size (measured 2.06 times
    # the coefficient bytes; 7.60 with three copies and one 65536-point pass)
    res = solve(spherical_wave_data(), T=1.0, R=6.0, dr=0.002, n=3)
    grid = GridSpec.from_region(AdmissibleRegion(0.25, 1.0, 0.6, 1.6666667), 256, 256, 3)
    grid.T, grid.R  # the grid's nodes are built before the trace
    _, peak = traced_peak(lambda: res.field_on(grid))
    sp, = res._interpolants.values()
    assert sp.c.shape == (659, 663)
    assert peak <= 2.25 * sp.c.nbytes


# ---------------------------------------------------------------------------
# the causal band against the full-width leapfrog
# ---------------------------------------------------------------------------

def assert_matches_full_width(data, U=ZeroU(), support_radius=None, **kw):
    """solve(data) equals the oracle that steps every cell, bit for bit."""
    res = solve(data, U=U, support_radius=support_radius, **kw)
    times, slices, drift = leapfrog_full_width(data, U=U, **kw)
    assert res.times.tobytes() == times.tobytes()
    assert res.slices.tobytes() == slices.tobytes()
    assert res.energy_drift.hex() == drift.hex()
    return res


def bump(width, power, center=0.0):
    """(1 - ((r - center) / width)^2)^power on |r - center| < width, else +0.0."""
    return lambda r: np.clip(1.0 - ((r - center) / width) ** 2, 0.0, None) ** power


# -0.0, subnormals of both signs and a tiny normal number
TAILS = (-0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(w0=st.floats(0.2, 1.2), w1=st.floats(0.2, 1.2), power=st.integers(1, 8),
       n=st.integers(2, 4), dr=st.sampled_from([0.01, 0.02, 0.04]), T=st.floats(0.05, 1.0))
def test_band_matches_full_width_on_compact_data(w0, w1, power, n, dr, T):
    data = CauchyData(profile=bump(w0, power), velocity=lambda r: -0.5 * bump(w1, power + 1)(r))
    res = assert_matches_full_width(data, T=T, R=max(w0, w1) + T + 1.5, dr=dr, n=n)
    assert res.band.shape[1] < len(res.r)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(amp=st.sampled_from([0.0, 1.0]),
       tail0=st.dictionaries(st.integers(60, 199), st.sampled_from(TAILS), max_size=4),
       tail1=st.dictionaries(st.integers(60, 199), st.sampled_from(TAILS), max_size=4))
def test_band_matches_full_width_with_zero_and_subnormal_tails(amp, tail0, tail1):
    # cells past the bump hold -0.0 or subnormals: -0.0 in phi0 and any
    # nonzero value in either widen the band, -0.0 in phi1 does not
    def with_tail(f, tail):
        def g(r):
            out = amp * f(r)
            for j, x in tail.items():
                out[j] = x
            return out
        return g

    data = CauchyData(profile=with_tail(bump(1.0, 4), tail0),
                      velocity=with_tail(bump(0.6, 3), tail1))
    assert_matches_full_width(data, support_radius=1.0, T=0.5, R=4.0, dr=0.02, n=3)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("ell", [0, 1])
def test_band_matches_full_width_on_zero_data(zero, ell):
    data = CauchyData(profile=lambda r: np.full_like(r, zero),
                      velocity=lambda r: np.full_like(r, zero), ell=ell)
    res = assert_matches_full_width(data, T=0.3, R=2.0, dr=0.02, n=3)
    assert math.isnan(res.energy_drift)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(ell=st.sampled_from([1, 2]), n=st.integers(3, 4), center=st.floats(1.0, 2.0),
       T=st.floats(0.02, 0.2))
def test_band_matches_full_width_on_higher_modes(ell, n, center, T):
    # the data stay clear of the origin, where ell >= 1 is not stable
    data = CauchyData(profile=bump(0.5, 4, center), velocity=bump(0.3, 2, center), ell=ell)
    assert_matches_full_width(data, T=T, R=center + 2.0, dr=0.01, n=n)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(width=st.floats(0.3, 1.0), T=st.floats(0.1, 0.6))
def test_band_matches_full_width_on_gaussian_data(width, T):
    # no cell of a gaussian is zero on this grid: the band is the whole grid
    data = CauchyData(profile=lambda r: np.exp(-(r / width) ** 2),
                      velocity=lambda r: np.zeros_like(r))
    res = assert_matches_full_width(data, support_radius=2.0, T=T, R=4.0, dr=0.02, n=3)
    assert res.band.shape == res.slices.shape


@settings(max_examples=8, derandomize=True, deadline=None)
@given(sign=st.sampled_from([-1, 1]), p=st.sampled_from([1.0, 3.0]),
       kind=st.sampled_from(["constant", "power"]), T=st.floats(0.1, 0.5))
def test_band_matches_full_width_on_nonlinear_data(sign, p, kind, T):
    pot = (Potential.constant(1.0) if kind == "constant"
           else Potential.power_of_f(0.25, amplitude=1.0))
    data = CauchyData(profile=lambda r: 0.5 * bump(1.0, 4)(r), velocity=bump(0.5, 3))
    res = assert_matches_full_width(data, U=PowerU(sign, p, pot), T=T, R=3.0, dr=0.02, n=3)
    # the nonlinear term vanishes with phi, so the band stops short of R too
    assert res.band.shape[1] < res.slices.shape[1]


def test_slices_are_a_new_array_on_each_read():
    res = solve(spherical_wave_data(), T=0.5, R=4.0, dr=0.02, n=3)
    nb = res.band.shape[1]
    assert nb < len(res.r)
    first = res.slices
    assert first is not res.slices
    first[:] = 1.0
    assert np.array_equal(res.slices[:, :nb], res.band)
    assert not np.any(res.slices[:, nb:])


def test_stored_steps_are_those_np_unique_keeps():
    # dropping each repeat of the rounded linspace keeps np.unique's indices
    for nsteps in range(1, 3001):
        per_dir = min(MAX_STORED_SLICES // 2, nsteps + 1)
        want = np.unique(np.round(np.linspace(0, nsteps, per_dir)).astype(int))
        got = _stored_steps(nsteps)
        assert got.dtype == want.dtype and np.array_equal(got, want), nsteps


def test_field_on_guards():
    data = spherical_wave_data()
    res = solve(data, T=0.5, R=4.0, dr=0.02, n=3)
    big = GridSpec.from_region(AdmissibleRegion(0.1, 10.0, 0.1, 10.0), 16, 16, 3)
    with pytest.raises(RegionOutOfGrid):
        res.field_on(big)
    small = GridSpec.from_region(AdmissibleRegion(0.25, 1.0, 0.7, 1.4), 8, 8, 4)
    with pytest.raises(InvalidInput):
        res.field_on(small)  # wrong dimension
    # the sampled field is of the evolution's mode; 9 steps stay clear of
    # the ell = 1 blow-up at the origin
    dipole = CauchyData(profile=lambda r: r * np.exp(-(r / 0.5) ** 2),
                        velocity=lambda r: np.zeros_like(r), ell=1)
    res = solve(dipole, T=0.15, R=6.0, dr=0.02, n=3)
    assert res.meta["nsteps"] == 9
    fld = res.field_on(GridSpec.from_region(AdmissibleRegion(0.25, 1.0, 0.9, 1.1), 8, 8, 3))
    assert (fld.ell, fld.lam) == (1, 2.0)


# ---------------------------------------------------------------------------
# nonlinear terms and guards
# ---------------------------------------------------------------------------

def test_nonlinear_evolution_runs_and_differs():
    data = CauchyData(profile=lambda r: 0.5 * np.exp(-(r / 0.7) ** 2),
                      velocity=lambda r: np.zeros_like(r))
    lin = solve(data, T=0.5, R=4.0, dr=0.01, n=3, support_radius=2.5)
    U = PowerU(1, 2.0, Potential.constant(1.0))
    non = solve(data, T=0.5, R=4.0, dr=0.01, n=3, U=U, support_radius=2.5)
    gap = np.max(np.abs(lin.slices[-1] - non.slices[-1]))
    assert gap > 1e-4
    assert np.all(np.isfinite(non.slices))


def test_mode_and_stability_guards():
    data2 = CauchyData(profile=lambda r: np.exp(-(r / 0.7) ** 2),
                       velocity=lambda r: np.zeros_like(r), ell=2)
    U = PowerU(1, 2.0, Potential.constant(1.0))
    with pytest.raises(ModeNotSupported):
        solve(data2, T=0.5, R=4.0, dr=0.02, n=3, U=U)
    data = CauchyData(profile=lambda r: np.exp(-(r / 0.7) ** 2),
                      velocity=lambda r: np.zeros_like(r))
    with pytest.raises(InvalidInput):
        solve(data, T=-1.0, R=4.0, dr=0.02, n=3)
    # a malformed size or dimension is named, never a bare ValueError,
    # OverflowError or TypeError
    for bad in ({"T": math.nan}, {"R": math.nan}, {"dr": math.nan}, {"R": math.inf},
                {"T": math.inf}, {"dr": None}, {"n": math.nan}, {"n": 2.5}, {"n": None}):
        with pytest.raises(InvalidInput):
            solve(data, **{"T": 0.5, "R": 4.0, "dr": 0.02, "n": 3, **bad})
    with pytest.raises(DomainTooSmall):
        solve(data, T=3.0, R=4.0, dr=0.02, n=3)
    for ell in (-1, math.nan, None, 1.5, True):
        with pytest.raises(InvalidInput):
            CauchyData(profile=lambda r: r, velocity=lambda r: r, ell=ell)
    assert CauchyData(profile=lambda r: r, velocity=lambda r: r, ell=np.int64(1)).ell == 1
    with pytest.raises(InvalidInput):
        solve(CauchyData(profile=lambda r: 1.0, velocity=lambda r: 0.0),
              T=0.5, R=4.0, dr=0.02, n=3)


def test_focusing_blowup_detected():
    # large focusing data blows up in finite time; the stepper must refuse
    # to continue rather than return garbage
    data = CauchyData(profile=lambda r: 20.0 * np.exp(-(r / 0.5) ** 2),
                      velocity=lambda r: np.zeros_like(r))
    U = PowerU(1, 2.0, Potential.constant(1.0))
    with pytest.raises(UnstableStep):
        solve(data, T=2.5, R=6.0, dr=0.01, n=3, U=U, support_radius=2.0)


# ---------------------------------------------------------------------------
# static multipole helper
# ---------------------------------------------------------------------------

def test_static_multipole_guards():
    with pytest.raises(InvalidInput):
        static_multipole(0, 3)
    with pytest.raises(InvalidInput):
        static_multipole(1, 2)


# ---------------------------------------------------------------------------
# glued static solution
# ---------------------------------------------------------------------------

def test_counterexample_exponents_exact():
    bun = counterexample_build(n=3, a=6.0)
    assert bun.q_plus == pytest.approx(2.0, abs=1e-14)
    assert bun.q_minus == pytest.approx(-3.0, abs=1e-14)
    assert bun.ell == 2
    assert bun.support == (1.0, 2.0)


# the bridge at n = 3, a = 6, as float.hex, at these radii
BRIDGE_R = (0.5, 1.1, 1.3, 1.5, 1.7, 1.9, 3.0)
BRIDGE_HEX = {
    "beta": ["0x1.0000000000000p-2", "0x1.2f5c9f5e313b9p+0", "0x1.1ee0dd9af7df3p+0",
             "0x1.32b949aab85c2p-1", "0x1.0e68c9b7ea384p-2", "0x1.2efeb68a35751p-3",
             "0x1.2f684bda12f68p-5"],
    "dbeta": ["0x1.0000000000000p+0", "0x1.72f9defaa2a52p+0", "-0x1.0d145c8c9c128p+1",
              "-0x1.3528da446726cp+1", "-0x1.fc390022ae175p-1", "-0x1.2da6314958272p-2",
              "-0x1.2f684bda12f68p-5"],
    "d2beta": ["0x1.0000000000000p+1", "-0x1.9ba22087a2f58p+3", "-0x1.a96f46066dbfbp+3",
               "0x1.b1ec61aa2b65ep+2", "0x1.6334754e43474p+2", "0x1.c4fc801e95e39p+0",
               "0x1.948b0fcd6e9e1p-5"],
    "potential": ["0x0.0p+0", "0x1.b2e55ba5a2214p+3", "0x1.24cd6a47a207dp+4",
                  "-0x1.a33c51d79c199p+1", "-0x1.d09b2addeb213p+3", "-0x1.0679019ad06a2p+3",
                  "0x0.0p+0"],
}


@pytest.mark.parametrize("name", BRIDGE_HEX)
def test_counterexample_bridge_is_pinned_bitwise(name):
    fn = getattr(counterexample_build(n=3, a=6.0), name)
    assert [float(fn(r)).hex() for r in BRIDGE_R] == BRIDGE_HEX[name]


def test_counterexample_bridge_matches_the_bernstein_oracle():
    # scipy's BPoly builds the same quintic Hermite interpolant of log beta
    from scipy.interpolate import BPoly

    bun = counterexample_build(n=3, a=6.0)
    qp, qm = bun.q_plus, bun.q_minus
    w = BPoly.from_derivatives([1.0, 2.0], [[0.0, qp, -qp],
                                            [qm * math.log(2.0), qm / 2.0, -qm / 4.0]])
    r = np.linspace(1.0, 2.0, 2001)[1:-1]
    w0, w1, w2 = w(r), w.derivative()(r), w.derivative(2)(r)
    want = {"beta": np.exp(w0), "dbeta": np.exp(w0) * w1,
            "d2beta": np.exp(w0) * (w2 + w1**2),
            "potential": -(w2 + w1**2) - 2.0 * w1 / r + 6.0 / r**2}
    for name, ref in want.items():
        assert np.max(np.abs(getattr(bun, name)(r) - ref)) <= 1e-13, name


def test_counterexample_static_residual():
    bun = counterexample_build(n=3, a=6.0)
    r = np.linspace(0.05, 40.0, 4000)
    resid = bun.residual(r)
    scale = np.max(np.abs(bun.beta(r)) * np.abs(bun.potential(r) + 1.0))
    assert np.max(np.abs(resid)) < 1e-10 * max(scale, 1.0)


def test_counterexample_profile_structure():
    bun = counterexample_build(n=3, a=6.0)
    # power branches hold exactly outside the bridge
    r_in = np.linspace(0.05, 1.0, 50)
    r_out = np.linspace(2.0, 50.0, 50)
    assert np.allclose(bun.beta(r_in), r_in**2.0, rtol=1e-14)
    assert np.allclose(bun.beta(r_out), r_out**-3.0, rtol=1e-14)
    # log-log tail slope over r in [10, 1000]
    rr = np.logspace(1, 3, 31)
    slope = np.polyfit(np.log(rr), np.log(bun.beta(rr)), 1)[0]
    assert abs(slope - bun.q_minus) <= 0.01 * abs(bun.q_minus)
    # bridge is C^1-smooth in the sampled profile
    rb = np.linspace(0.9, 2.1, 2401)
    db = np.gradient(bun.beta(rb), rb)
    assert np.max(np.abs(db - bun.dbeta(rb))) < 5e-3 * np.max(np.abs(bun.dbeta(rb)))


def test_counterexample_potential_bounded_and_supported():
    bun = counterexample_build(n=3, a=6.0)
    r = np.linspace(0.01, 50.0, 20000)
    U = bun.potential(r)
    inside = (r > 1.0) & (r < 2.0)
    assert np.max(np.abs(U[~inside])) == 0.0
    assert np.max(np.abs(U)) < 25.0
    assert np.max(np.abs(U)) > 1.0  # genuinely nonzero on the bridge


def test_counterexample_input_guards():
    with pytest.raises(InvalidInput):
        counterexample_build(n=2, a=6.0)
    with pytest.raises(InvalidInput):
        counterexample_build(n=3, a=-1.0)
    for a in (math.nan, math.inf, None):
        with pytest.raises(InvalidInput):
            counterexample_build(n=3, a=a)
    for n in (3.5, math.nan, None):
        with pytest.raises(InvalidInput):
            counterexample_build(n=n, a=6.0)
    # 4 a overflows to inf: sqrt(inf) then fed int(round(inf)), an OverflowError
    for a in (1e308, 1.7976931348623157e308):
        with pytest.raises(InvalidInput, match="got a = "):
            counterexample_build(n=3, a=a)
