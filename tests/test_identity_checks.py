"""Row blocks of the identity checks (verifier.identity_checks): the blocks
cover the grid once, each block's arrays are the rows of the whole grid's,
the joined reports are the bits of one block, and a check's memory follows
its block, not its grid.  A lone check runs the same code on its one pair,
a weight's stage serves one run of pairs, and a verify-identity job hands
every check one object per U."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import cli
from conelab import verifier as V
from conelab.currents import divergence_fd
from conelab.fields import GridSpec, NodeRows, ScalarField
from conelab.geometry import AdmissibleRegion
from conelab.stencils import SUPPORTED_ORDERS

from _oracles import assert_same_block_bits, block_arrays, traced_peak

REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
FIELDS = {name: (src, ell) for name, src, ell in V.battery_fields()}
U_CHOICES = [U for _, U in cli._battery_u_choices()]
CHECKS = [(rep, U) for _, rep in V.battery_weights() for U in U_CHOICES]
WHOLE = 10**9  # a BLOCK_POINTS that makes every grid one block


def _pointwise(mode):
    def check(fld, rep, U, stages):
        return V.pointwise_inequality(fld, rep, U, derivative_mode=mode, stages=stages)
    return check


def _residual(fld, rep, U, stages):
    return V.identity_residual(fld, rep, U, derivative_mode="fd", stages=stages)


# the check verify-identity runs on each route
CLI_CHECKS = {"fd": _residual, "analytic": _pointwise("analytic")}


def _bits(report):
    idr = report.identity
    return (idr.residual.hex(), idr.rel_residual.hex(), report.margin_min.hex(), report.passed)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_row_blocks_split_the_grid_into_runs_a_stencil_takes(order, monkeypatch):
    monkeypatch.setattr(V, "BLOCK_POINTS", 12 * 20)
    for n_s in range(max(8, 2 * order + 1), 64, 5):
        g = GridSpec(region=REGION, n_s=n_s, n_y=20, n=3, order=order)
        for mode in ("fd", "analytic"):
            blocks = V._row_blocks(g, mode)
            owned = [(b.nodes.rows.start + b.own.start, b.nodes.rows.start + b.own.stop)
                     for b in blocks]
            # consecutive runs from the first row to the last
            assert [lo for lo, _ in owned] == [0] + [hi for _, hi in owned[:-1]]
            assert owned[-1][1] == n_s
            sizes = [hi - lo for lo, hi in owned]
            # the fewest blocks of at most 12 rows, unless that many would
            # leave one shorter than order + 1
            assert len(blocks) == min(-(-n_s // 12), n_s // (order + 1))
            assert min(sizes) >= order + 1
            assert max(sizes) - min(sizes) <= 1
            halo = order // 2 if mode == "fd" else 0
            keep = g.interior(2)[0] if mode == "fd" else slice(0, n_s)
            for b, (lo, hi) in zip(blocks, owned):
                assert b.nodes.rows == slice(max(lo - halo, 0), min(hi + halo, n_s))
                rows = range(lo, hi)[b.checked[0]]
                assert list(rows) == [r for r in range(lo, hi) if keep.start <= r < keep.stop]
                assert b.checked[1] == (g.interior(2)[1] if mode == "fd" else slice(None))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_divergence_on_node_rows_with_a_halo_is_the_whole_grids_rows(order):
    # order // 2 rows past a block's own reach its stencils' whole width
    rng = np.random.default_rng(order)
    g = GridSpec(region=REGION, n_s=53, n_y=17, n=3, order=order)
    P_u, P_v = rng.standard_normal((2, g.n_s, g.n_y))
    whole = divergence_fd(NodeRows(g), P_u, P_v)
    hw = order // 2
    for lo, hi in ((0, order + 1), (9, 30), (30, 53), (order + 1, 53 - order - 1)):
        rows = slice(max(lo - hw, 0), min(hi + hw, g.n_s))
        block = divergence_fd(NodeRows(g, rows), P_u[rows], P_v[rows])
        own = block[lo - rows.start:hi - rows.start]
        assert own.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", ["spherical-wave", "multipole"])
def test_block_arrays_are_the_rows_of_the_whole_grids(name, mode, monkeypatch):
    src, ell = FIELDS[name]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=37, n_y=21, n=3), src, ell)
    monkeypatch.setattr(V, "BLOCK_POINTS", WHOLE)
    whole = block_arrays(fld, mode, CHECKS)
    monkeypatch.setattr(V, "BLOCK_POINTS", 9 * 21)
    blocks = V._row_blocks(fld.grid, mode)
    assert [b.own.stop - b.own.start for b in blocks] == [7, 7, 8, 7, 8]
    for (one,), blocked in zip(whole, block_arrays(fld, mode, CHECKS)):
        lhs, rhs, _, terms = one
        for block, (b_lhs, b_rhs, b_maxima, b_terms) in zip(blocks, blocked):
            start = block.nodes.rows.start
            rows = slice(start + block.own.start, start + block.own.stop)
            assert b_lhs.tobytes() == lhs[rows].tobytes()
            assert b_rhs.tobytes() == rhs[rows].tobytes()
            assert b_maxima[0] == float(np.max(np.abs(lhs[rows])))
            assert b_maxima[2] == float(np.max(np.abs(terms["div"][rows])))
            for key, arr in terms.items():
                assert b_terms[key].tobytes() == arr[rows].tobytes(), key


@settings(max_examples=12, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(FIELDS)), mode=st.sampled_from(["fd", "analytic"]),
       order=st.sampled_from(SUPPORTED_ORDERS), data=st.data())
def test_joined_block_reports_are_the_bits_of_one_block(name, mode, order, data):
    n_s = data.draw(st.integers(max(8, 2 * order + 1), 48), label="n_s")
    n_y = data.draw(st.integers(max(8, 2 * order + 1), 20), label="n_y")
    # rows per block: most often a count that does not divide the grid's
    rows = data.draw(st.integers(order + 1, max(order + 1, n_s // 2)), label="rows")
    src, ell = FIELDS[name]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=n_s, n_y=n_y, n=3,
                                             order=order), src, ell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "BLOCK_POINTS", WHOLE)
        whole = V.identity_checks(fld, mode, CHECKS, _pointwise(mode))
        mp.setattr(V, "BLOCK_POINTS", rows * n_y)
        blocked = V.identity_checks(fld, mode, CHECKS, _pointwise(mode))
    assert [_bits(r) for r in blocked] == [_bits(r) for r in whole]


@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_a_non_finite_residual_in_one_block_fails_the_joined_reports(mode, monkeypatch):
    # a NaN or an infinity met in one block only reaches the joined
    # residual, its relative value and the margin's tolerance as one max
    # over the whole grid would
    src, ell = FIELDS["oscillatory"]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=40, n_y=16, n=3), src, ell)
    monkeypatch.setattr(V, "BLOCK_POINTS", 10 * 16)
    real = V.identity_residual
    for bad in (math.inf, math.nan):
        seen = []

        def one_block_bad(*args, _bad=bad, **kwargs):
            rep = real(*args, **kwargs)
            seen.append(rep)
            return rep if len(seen) != 2 else V._identity_report(_bad, rep.maxima, rep.mode,
                                                                   rep.terms)

        monkeypatch.setattr(V, "identity_residual", one_block_bad)
        (out,) = V.identity_checks(fld, mode, CHECKS[:1], _pointwise(mode))
        assert len(seen) == 4
        assert not math.isfinite(out.identity.residual)
        assert not math.isfinite(out.identity.rel_residual)
        assert math.isfinite(out.margin_min) and out.passed is False


def test_a_check_outside_the_plan_builds_its_own_stages(monkeypatch):
    # a lone check (no stages=) runs identity_checks on its one pair, to the
    # bits it has among the job's pairs
    src, ell = FIELDS["oscillatory"]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=20, n_y=20, n=3), src, ell)
    other = CHECKS[2][0]  # the low split weight
    shared = V.identity_checks(fld, "analytic", CHECKS, lambda fld, rep, U, stages: (
        V.pointwise_inequality(fld, rep, U, derivative_mode="analytic", stages=stages)))
    arrays = block_arrays(fld, "analytic", CHECKS)
    lone = {id(U): block_arrays(fld, "analytic", [(other, U)])[0] for U in U_CHOICES}
    calls = []
    real = V.identity_checks

    def spy(fld, mode, pairs, check):
        calls.append(list(pairs))
        return real(fld, mode, pairs, check)

    monkeypatch.setattr(V, "identity_checks", spy)
    for (rep, U), want, want_arrays in zip(CHECKS, shared, arrays):
        if rep is other:
            got = V.pointwise_inequality(fld, rep, U, derivative_mode="analytic")
            assert got == want and got.margin_min.hex() == want.margin_min.hex()
            assert_same_block_bits(lone[id(U)], want_arrays)
    assert calls == [[(other, U)] for U in U_CHOICES]


def test_a_weight_stage_serves_one_run_of_pairs(monkeypatch):
    # a weight that comes back after another gets a stage of its own again,
    # with the same bits
    src, ell = FIELDS["multipole"]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=20, n_y=20, n=3), src, ell)
    w1, w2 = CHECKS[0][0], CHECKS[2][0]
    pairs = [(w1, U_CHOICES[0]), (w2, U_CHOICES[0]), (w1, U_CHOICES[1])]
    wants = [block_arrays(fld, "fd", [pair])[0] for pair in pairs]
    built = []
    real = V._weight_stage

    def weight_stage(block, rep, *args):
        built.append(rep)
        return real(block, rep, *args)

    monkeypatch.setattr(V, "_weight_stage", weight_stage)
    gots = block_arrays(fld, "fd", pairs)
    for got, want in zip(gots, wants):
        assert_same_block_bits(got, want)
    assert [rep is w for rep, w in zip(built, (w1, w2, w1))] == [True] * 3
    built.clear()
    V.identity_checks(fld, "fd", CHECKS, lambda fld, rep, U, stages: V.identity_residual(
        fld, rep, U, derivative_mode="fd", stages=stages))
    assert len(built) == 3


def test_verify_identity_checks_that_share_a_u_share_the_object(tmp_path, monkeypatch):
    # a U stage is built per U object, so a U rebuilt per weight (whose
    # potential's lambdas make equal-looking copies compare unequal) would
    # build its stage once per weight
    seen, fits = [], []
    lock = threading.Lock()
    real_checks = V.identity_checks
    real_conv = V.identity_convergence

    def checks(fld, mode, pairs, check):
        with lock:
            seen.append((mode, list(pairs)))
        return real_checks(fld, mode, pairs, check)

    def conv(fields, rels):
        with lock:
            fits.append(len(rels))
        return real_conv(fields, rels)

    monkeypatch.setattr(V, "identity_checks", checks)
    monkeypatch.setattr(V, "identity_convergence", conv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "levels": [16, 32]}))
    cli.main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert fits == [2] * 30
    # per field, 2 FD levels and 1 analytic copy, each over the six checks
    assert sorted(mode for mode, _ in seen) == ["analytic"] * 5 + ["fd"] * 10
    pairs = [pair for _, ps in seen for pair in ps]
    assert len(pairs) == 15 * 6
    assert len({id(U) for _, U in pairs}) == 2 and len({id(rep) for rep, _ in pairs}) == 3


# tracemalloc peak of a lone identity_checks of verify-identity's six
# checks on the spherical wave at 512^2, its grid's node arrays built
# before, in arrays of 512^2: on the FD route 8.29, on the analytic route
# 7.01 (eight blocks of 64 rows), against 42.07 and 56.02 when every stage
# spanned the grid; pinned with 1.5 arrays of margin.
BLOCK_PEAK_512 = {"fd": 9.8, "analytic": 8.5}


@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_a_lone_check_at_512_peaks_with_its_block_not_its_grid(mode):
    g = GridSpec(region=REGION, n_s=512, n_y=512, n=3)
    fld = ScalarField.from_analytic(g, *FIELDS["spherical-wave"])
    for name in ("U", "V", "R", "F_col", "radial_coef"):
        getattr(g, name)
    reports, peak = traced_peak(lambda: V.identity_checks(fld, mode, CHECKS, CLI_CHECKS[mode]))
    assert len(reports) == len(CHECKS)
    assert peak / (512 * 512 * 8) <= BLOCK_PEAK_512[mode], peak / (512 * 512 * 8)
