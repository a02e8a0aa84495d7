"""Row blocks of the identity checks (verifier.identity_checks): the blocks
cover the grid once, each block's arrays are the rows of the whole grid's,
its FD derivatives are the whole grid's stencils' rows, the joined reports
are the bits of one block, and a check's memory follows its block, not its
grid.  On each block the checks on one field read each shared term built
once, to the bits of a check that builds its own; a lone check runs the
same code on its one pair, a weight's stage serves one run of pairs, and
no stage or node array outlives its block.  A verify-identity job hands
every check one object per U, and the grids of a level share one grid.  A
verify-identity job's memory peaks, by phase, and the whole run's: its jobs
run one after another, so the run peaks with one job, and at a finer top
level it grows by that level's samples alone."""

import gc
import json
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import cli, fields
from conelab import verifier as V
from conelab.currents import UTerms, WeightTerms, divergence_fd
from conelab.fields import AnalyticField, GridSpec, NodeRows, ScalarField
from conelab.geometry import AdmissibleRegion
from conelab.stencils import SUPPORTED_ORDERS

from _oracles import assert_same_block_bits, block_arrays, traced_peak, whole_grid_fd

REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
FIELDS = {name: (src, ell) for name, src, ell in V.battery_fields()}
U_CHOICES = [U for _, U in cli._battery_u_choices()]
CHECKS = [(rep, U) for _, rep in V.battery_weights() for U in U_CHOICES]
WHOLE = 10**9  # a BLOCK_POINTS that makes every grid one block
ARRAY_256 = 256 * 256 * 8  # bytes of one 256 x 256 float64 array


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
    monkeypatch.setattr(fields, "BLOCK_POINTS", 12 * 20)
    for n_s in range(max(8, 2 * order + 1), 64, 5):
        g = GridSpec(region=REGION, n_s=n_s, n_y=20, n=3, order=order)
        for mode in ("fd", "analytic"):
            blocks = list(V._row_blocks(g, mode))
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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(order=st.sampled_from(SUPPORTED_ORDERS), data=st.data())
def test_fd_derivatives_on_a_run_of_rows_are_the_whole_grids_stencils_rows(order, data):
    # a run of rows at every offset, its edges on the grid's or not: the s
    # stencils read order // 2 rows of values past the run, which gives each
    # of its rows the stencil it has on the whole grid, and its node arrays
    # are the grid's rows
    n_s = 2 * data.draw(st.integers(max(4, order // 2), 20), label="half") + 1
    n_y = data.draw(st.integers(max(8, order + 1), 16), label="n_y")
    length = data.draw(st.integers(order + 1, n_s), label="length")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = GridSpec(region=REGION, n_s=n_s, n_y=n_y, n=3, order=order)
    fld = ScalarField(grid=g, values=rng.standard_normal((n_s, n_y)))
    wants = {k: whole_grid_fd(fld, k) for k in (1, "wave", 2)}
    for k, want in wants.items():
        assert [a.tobytes() for a in fld.fd_derivs(k)] == [a.tobytes() for a in want], k
    for lo in range(n_s - length + 1):
        rows = slice(lo, lo + length)
        nodes = NodeRows(g, rows)
        for name in ("U", "V", "R", "F_col", "radial_coef"):
            assert getattr(nodes, name).tobytes() == getattr(g, name)[rows].tobytes(), name
        for k, want in wants.items():
            got = fld.fd_derivs(k, nodes)
            assert [a.tobytes() for a in got] == [a[rows].tobytes() for a in want], (k, lo)


def test_sampling_by_row_runs_is_the_whole_grids_bits():
    # a closed-form field's first read of its values evaluates the closed
    # form one row run at a time, to the bits of one call on the whole grid;
    # the read is inside the patch, where the samples are formed
    g = GridSpec(region=REGION, n_s=53, n_y=21, n=3)
    for name, (src, ell) in FIELDS.items():
        want = src.value(g.U, g.V)
        for points in (WHOLE, 9 * 21, 21):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "BLOCK_POINTS", points)
                got = ScalarField.from_analytic(g, src, ell).values
            assert got.tobytes() == want.tobytes(), (name, points)


# tracemalloc peak of sampling the spherical wave at 512^2, in arrays of
# 512^2: 1.75, its values and one row run's node arrays and temporaries,
# against 11.26 when one value call read the grid's node arrays, built
# inside it, and held the closed form's temporaries for every node; pinned
# with 1.5 arrays of 256^2 (0.375 of 512^2) of margin.
SAMPLE_PEAK_512 = 2.2


def test_sampling_at_512_peaks_with_its_values_and_one_run():
    # the samples are formed on the first read of values, inside the trace
    g = GridSpec(region=REGION, n_s=512, n_y=512, n=3)
    vals, peak = traced_peak(lambda: ScalarField.from_analytic(
        g, *FIELDS["spherical-wave"]).values)
    assert vals.shape == (512, 512)
    assert peak / (512 * 512 * 8) <= SAMPLE_PEAK_512, peak / (512 * 512 * 8)


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", ["spherical-wave", "multipole"])
def test_block_arrays_are_the_rows_of_the_whole_grids(name, mode, monkeypatch):
    src, ell = FIELDS[name]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=37, n_y=21, n=3), src, ell)
    monkeypatch.setattr(fields, "BLOCK_POINTS", WHOLE)
    whole = block_arrays(fld, mode, CHECKS)
    monkeypatch.setattr(fields, "BLOCK_POINTS", 9 * 21)
    blocks = list(V._row_blocks(fld.grid, mode))
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
        mp.setattr(fields, "BLOCK_POINTS", WHOLE)
        whole = V.identity_checks(fld, mode, CHECKS, _pointwise(mode))
        mp.setattr(fields, "BLOCK_POINTS", rows * n_y)
        blocked = V.identity_checks(fld, mode, CHECKS, _pointwise(mode))
    assert [_bits(r) for r in blocked] == [_bits(r) for r in whole]


@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_a_non_finite_residual_in_one_block_fails_the_joined_reports(mode, monkeypatch):
    # a NaN or an infinity met in one block only reaches the joined
    # residual, its relative value and the margin's tolerance as one max
    # over the whole grid would
    src, ell = FIELDS["oscillatory"]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=40, n_y=16, n=3), src, ell)
    monkeypatch.setattr(fields, "BLOCK_POINTS", 10 * 16)
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


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_shared_stages_give_the_bits_of_one_check_evaluations(name, mode, monkeypatch):
    # on three row blocks of 8 rows, each check's arrays equal those of a
    # fresh field, whose derivatives and stages serve this check alone
    src, ell = FIELDS[name]
    grid = GridSpec(region=REGION, n_s=24, n_y=24, n=3)
    monkeypatch.setattr(fields, "BLOCK_POINTS", 8 * 24)
    shared = block_arrays(ScalarField.from_analytic(grid, src, ell), mode, CHECKS)
    assert [len(blocks) for blocks in shared] == [3] * len(CHECKS)
    for pair, got in zip(CHECKS, shared):
        (want,) = block_arrays(ScalarField.from_analytic(grid, src, ell), mode, [pair])
        assert_same_block_bits(got, want)


def _stage_refs(stage):
    """Weak references to what a stage holds: its arrays and term objects.
    A live object's plain weak reference is one object, so the references
    tell the objects apart."""
    if isinstance(stage, tuple):
        return [r for part in stage for r in _stage_refs(part)]
    if isinstance(stage, (np.ndarray, UTerms, WeightTerms)):
        return [weakref.ref(stage)]
    return []


def test_no_stage_outlives_its_last_reader_or_is_reachable_from_a_field(monkeypatch):
    # the job's flow on two levels: FD residuals level by level, then the
    # order fit and the analytic checks on fields never sampled
    built, weight_stages = [], []
    real_weight = V._weight_stage

    def weight_stage(*args):
        # the last weight's stage, of this block or the one before, is gone
        # before the next is built
        assert not [r for r in weight_stages if r() is not None]
        stage = real_weight(*args)
        weight_stages.extend(_stage_refs(stage))
        return stage

    def record(stages):
        built.extend((r, type(r()).__name__) for r in _stage_refs(stages))

    def fd(fld, rep, U, stages):
        record(stages)
        return V.identity_residual(fld, rep, U, derivative_mode="fd", stages=stages)

    def analytic(fld, rep, U, stages):
        record(stages)
        return V.pointwise_inequality(fld, rep, U, derivative_mode="analytic", stages=stages)

    monkeypatch.setattr(V, "_weight_stage", weight_stage)
    src, ell = FIELDS["spherical-wave"]
    grids = [GridSpec(region=REGION, n_s=m, n_y=m, n=3) for m in (16, 32)]
    sampled = [ScalarField.from_analytic(g, src, ell) for g in grids]
    unsampled = [ScalarField.from_analytic(g, src, ell) for g in grids]
    rels = [[r.rel_residual for r in V.identity_checks(fld, "fd", CHECKS, fd)] for fld in sampled]
    recs = [V.identity_convergence(unsampled, level_rels) for level_rels in zip(*rels)]
    assert len(recs) == len(CHECKS)
    assert len(V.identity_checks(unsampled[-1], "analytic", CHECKS, analytic)) == len(CHECKS)
    # per field (2 FD levels, the analytic finest) and block (one per grid
    # here): 2 U stages and 3 weight stages
    kinds = list({id(r): kind for r, kind in built}.values())
    assert kinds.count("UTerms") == 3 * 2 and kinds.count("WeightTerms") == 3 * 3
    gc.collect()
    assert built and not [r for r, _ in built if r() is not None]
    # a field holds what it was built with, and its samples once the FD
    # stencils have read them: no stage and no derivative array
    held = {"grid", "closed_form", "name", "ell"}
    for fld in sampled:
        assert set(vars(fld)) == held | {"values"}
    for fld in unsampled:
        assert set(vars(fld)) == held


@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_a_blocks_nodes_and_stages_go_before_the_next_blocks_are_made(mode, monkeypatch):
    # when the next block's nodes are made, nothing of the blocks before is
    # alive: not their nodes, not their node arrays, not a stage a check read
    monkeypatch.setattr(fields, "BLOCK_POINTS", 8 * 24)
    src, ell = FIELDS["spherical-wave"]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=24, n_y=24, n=3), src, ell)
    refs, made, blocks = [], [], []

    class Nodes(NodeRows):
        def __init__(self, *args):
            assert not [r for r in refs if r() is not None], len(made)
            super().__init__(*args)
            made.append(self.rows)

    def check(fld, rep, U, stages):
        block = stages[0]
        if not blocks or blocks[-1]() is not block:  # a block's first check
            assert not [r for r in refs if r() is not None], len(blocks)
            blocks.append(weakref.ref(block))
        nodes = block.nodes
        refs.extend(_stage_refs(stages[1:]) + [weakref.ref(block), weakref.ref(nodes)])
        refs.extend(weakref.ref(getattr(nodes, name))
                    for name in ("U", "V", "R", "F_col", "radial_coef"))
        return CLI_CHECKS[mode](fld, rep, U, stages)

    monkeypatch.setattr(V, "NodeRows", Nodes)
    assert len(V.identity_checks(fld, mode, CHECKS, check)) == len(CHECKS)
    assert len(made) == len(blocks) == 3


def test_the_fields_of_a_level_share_one_grid(tmp_path, monkeypatch):
    # the ell = 0 and ell = 1 fields of a level are sampled on one grid, and
    # nothing keeps its node arrays once the run's grids are gone
    sampled = []
    real = ScalarField.from_analytic

    def from_analytic(grid, src, ell=0):
        sampled.append((grid, ell))
        return real(grid, src, ell)

    monkeypatch.setattr(ScalarField, "from_analytic", from_analytic)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "levels": [16, 32]}))
    cli.main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    refs = []
    for m in (16, 32):
        level = [(grid, ell) for grid, ell in sampled if grid.n_s == m]
        assert {ell for _, ell in level} == {0, 1}
        assert len({id(grid) for grid, _ in level}) == 1, m
        grid = level[0][0]
        refs += [weakref.ref(getattr(grid, name)) for name in ("U", "V", "R", "F_col")]
    del sampled[:], level, grid
    gc.collect()
    assert not [r for r in refs if r() is not None]


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
# checks on the spherical wave at 512^2, in arrays of 512^2: on the FD
# route 2.05, on the analytic route 2.11 (sixteen blocks of 32 rows, each
# with node arrays of its own), against 8.29 and 7.01 when eight blocks of
# 64 rows viewed the grid's node arrays, built before, and 42.07 and 56.02
# when every stage spanned the grid; pinned with 1.5 arrays of margin.
BLOCK_PEAK_512 = {"fd": 3.6, "analytic": 3.7}


@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_a_lone_check_at_512_peaks_with_its_block_not_its_grid(mode):
    g = GridSpec(region=REGION, n_s=512, n_y=512, n=3)
    fld = ScalarField.from_analytic(g, *FIELDS["spherical-wave"])
    reports, peak = traced_peak(lambda: V.identity_checks(fld, mode, CHECKS, CLI_CHECKS[mode]))
    assert len(reports) == len(CHECKS)
    assert peak / (512 * 512 * 8) <= BLOCK_PEAK_512[mode], peak / (512 * 512 * 8)


# tracemalloc peak of one default-level job (levels 64, 128, 256), with the
# node arrays of the grids it is the first to read built inside it: 43.01
# arrays of 256^2 when every check built every term, 41.38 when the checks
# shared them, and 36.50 when the analytic route's second derivatives also
# went after the field half, no level's derivatives stayed on its field and
# the grids of one level shared their node arrays (the multipole job, which
# reads the nodes the first job built, then peaks at 31.2), and 21.51 when
# the checks ran on row blocks of BLOCK_POINTS nodes, two blocks of 128 rows
# at 256^2 (the multipole job 16.22), and 9.43 when the blocks held 64 rows
# and node arrays of their own, the FD stencils ran per block and the
# samples were taken one row run at a time (the multipole job the same);
# pinned with 1.5 arrays of margin.
JOB_PEAK_ARRAYS = 11.0


def test_one_verify_identity_job_peaks_at_most_its_pin(tmp_path, monkeypatch):
    peaks = {}

    def fan_out(jobs):
        out = []
        for name, fn in jobs:
            if name not in ("spherical-wave", "multipole"):
                continue
            res, peak = traced_peak(fn)
            out.extend(res)
            peaks[name] = peak / ARRAY_256
        return out

    monkeypatch.setattr(cli, "_fan_out", fan_out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1}))
    cli.main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert set(peaks) == {"spherical-wave", "multipole"}
    for name, peak in peaks.items():
        assert peak <= JOB_PEAK_ARRAYS, (name, peak)


# tracemalloc peak of a whole default verify-identity (levels 64, 128, 256;
# five jobs, grids and report included), in arrays of 256^2: 21.80 when the
# jobs ran one after another, against 37.3-38.0 when they ran on a pool of
# two threads, whose jobs overlapped, and 9.84 when every array of a check
# held one row block of 64 rows; pinned with 1.5 arrays of margin.
RUN_PEAK_ARRAYS = 11.4


def test_a_whole_verify_identity_run_peaks_with_one_job(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1}))
    code, peak = traced_peak(lambda: cli.main(
        ["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")]))
    assert code == 0
    assert peak / ARRAY_256 <= RUN_PEAK_ARRAYS, peak / ARRAY_256


def test_a_runs_peak_grows_with_its_finest_samples_alone(tmp_path):
    # every array of a check is the size of a row block, and a block holds
    # at most BLOCK_POINTS nodes at any level, so a run whose finest level
    # is 512 in place of 256 holds only its larger samples more: the 512^2
    # field's (4 arrays of 256^2), plus 1.5 arrays of margin
    peaks = {}
    for top in (256, 512):
        cfg = tmp_path / f"cfg{top}.json"
        cfg.write_text(json.dumps({"schema": 1, "levels": [64, 128, top]}))
        code, peak = traced_peak(lambda: cli.main(
            ["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")]))
        assert code in (0, 1), code
        peaks[top] = peak / ARRAY_256
    assert peaks[512] <= peaks[256] + 4.0 + 1.5, peaks


@pytest.fixture(scope="module")
def multipole_phase_peaks(tmp_path_factory):
    """tracemalloc peaks, in arrays of 256^2, of the default multipole job run
    alone: its FD phase, up to its first analytic derivative evaluation
    (a list, empty if the hook there never fired), and the rest of the job,
    its analytic stage."""
    fd_peak = []
    real = AnalyticField.derivs2

    def derivs2(self, u, v):
        # the FD phase evaluates no closed-form derivatives
        if not fd_peak:
            fd_peak.append(tracemalloc.get_traced_memory()[1] / ARRAY_256)
            tracemalloc.reset_peak()
        return real(self, u, v)

    analytic_peak = []

    def fan_out(jobs):
        res, peak = traced_peak(dict(jobs)["multipole"])
        analytic_peak.append(peak / ARRAY_256)
        return res

    tmp = tmp_path_factory.mktemp("phases")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1}))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AnalyticField, "derivs2", derivs2)
        mp.setattr(cli, "_fan_out", fan_out)
        cli.main(["verify-identity", "--config", str(cfg), "--out", str(tmp / "r.json")])
    return fd_peak, analytic_peak


# tracemalloc peak of the FD phase of the default multipole job, run alone
# (levels 64, 128, 256, up to its first analytic derivative evaluation, the
# grids' node arrays built inside it): 34.68 arrays of 256^2 when each
# level's stages went before the next level's were built, 39.71 when every
# level's stages of a weight or U lived until that weight's or U's last
# check, 30.88 when no level's derivatives stay on its field, and 21.09
# when the checks ran on row blocks, whose stages hold 128 rows and a halo
# where they held the grid, and 9.18 when the blocks held 64 rows, their
# FD stencils ran per block and no array of the grid's size but the
# samples was built; pinned with 1.5 arrays of margin.
FD_PHASE_PEAK = 10.7


def test_the_fd_phase_holds_one_level_of_stages(multipole_phase_peaks):
    fd_peak, _ = multipole_phase_peaks
    assert len(fd_peak) == 1 and fd_peak[0] <= FD_PHASE_PEAK, fd_peak


# tracemalloc peak of the analytic stage of the same run, from its first
# derivative evaluation to the end of the job, counted from the job's start:
# 41.37 arrays of 256^2 when the field's memo kept phi_uu, phi_uv and phi_vv
# through the six checks, 36.47 when only phi, phi_u and phi_v live
# through them, and 21.50 when they and every stage hold one row block of
# 128 rows, and 9.45 when they hold 64 rows and node arrays of their own;
# pinned with 1.5 arrays of margin.
ANALYTIC_STAGE_PEAK = 11.0


def test_the_analytic_stage_keeps_no_second_derivative(multipole_phase_peaks):
    fd_peak, analytic_peak = multipole_phase_peaks
    assert len(fd_peak) == 1, "the analytic stage never started"
    assert analytic_peak[0] <= ANALYTIC_STAGE_PEAK, analytic_peak
