"""The identity's shared stages (verifier.identity_checks): on each row
block, the checks on one field read each term built once, to the bits of a
check that builds its own, each weight's stage goes before the next is
built, and no stage outlives its block.  A verify-identity job's memory:
its peaks, and one set of node arrays for the grids of a level.  The
blocks' own oracles, a lone check's stages, a weight's run of pairs and the
U objects of a job are in tests/test_identity_checks.py."""

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conelab import cli
from conelab import verifier as V
from conelab.currents import UTerms, WeightTerms
from conelab.fields import AnalyticField, GridSpec, ScalarField
from conelab.geometry import AdmissibleRegion
from conelab.verifier import identity_checks

from _oracles import assert_same_block_bits, block_arrays, traced_peak

REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
FIELDS = {name: (src, ell) for name, src, ell in V.battery_fields()}
# the job's six checks, in its order (weight outer, U inner), each U one object
U_CHOICES = [U for _, U in cli._battery_u_choices()]
CHECKS = [(rep, U) for _, rep in V.battery_weights() for U in U_CHOICES]
ARRAY_256 = 256 * 256 * 8  # bytes of one 256 x 256 float64 array


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_shared_stages_give_the_bits_of_one_check_evaluations(name, mode, monkeypatch):
    # on three row blocks of 8 rows, each check's arrays equal those of a
    # fresh field, whose derivatives and stages serve this check alone
    src, ell = FIELDS[name]
    grid = GridSpec(region=REGION, n_s=24, n_y=24, n=3)
    monkeypatch.setattr(V, "BLOCK_POINTS", 8 * 24)
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
    # analytic checks on a fresh copy of the finest field
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
    sampled = [ScalarField.from_analytic(GridSpec(region=REGION, n_s=m, n_y=m, n=3), src, ell)
               for m in (16, 32)]
    finest = replace(sampled[-1])
    rels = [[r.rel_residual for r in identity_checks(fld, "fd", CHECKS, fd)] for fld in sampled]
    recs = [V.identity_convergence(sampled, level_rels) for level_rels in zip(*rels)]
    assert len(recs) == len(CHECKS)
    assert len(identity_checks(finest, "analytic", CHECKS, analytic)) == len(CHECKS)
    # per field (2 FD levels, 1 analytic copy) and block (one per grid here):
    # 2 U stages and 3 weight stages
    kinds = list({id(r): kind for r, kind in built}.values())
    assert kinds.count("UTerms") == 3 * 2 and kinds.count("WeightTerms") == 3 * 3
    gc.collect()
    assert built and not [r for r, _ in built if r() is not None]
    for fld in (*sampled, finest):
        assert set(vars(fld)) <= {"grid", "values", "closed_form", "name", "ell"}


# tracemalloc peak of one default-level job (levels 64, 128, 256), with the
# node arrays of the grids it is the first to read built inside it: 43.01
# arrays of 256^2 when every check built every term, 41.38 when the checks
# shared them, and 36.50 when the analytic route's second derivatives also
# went after the field half, no level's derivatives stayed on its field and
# the grids of one level shared their node arrays (the multipole job, which
# reads the nodes the first job built, then peaks at 31.2), and 21.51 when
# the checks ran on row blocks of BLOCK_POINTS nodes, two blocks of 128 rows
# at 256^2 (the multipole job 16.22); pinned with 1.5 arrays of margin.
JOB_PEAK_ARRAYS = 23.0


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
# where they held the grid; pinned with 1.5 arrays of margin.
FD_PHASE_PEAK = 22.6


def test_the_fd_phase_holds_one_level_of_stages(multipole_phase_peaks):
    fd_peak, _ = multipole_phase_peaks
    assert len(fd_peak) == 1 and fd_peak[0] <= FD_PHASE_PEAK, fd_peak


# tracemalloc peak of the analytic stage of the same run, from its first
# derivative evaluation to the end of the job, counted from the job's start:
# 41.37 arrays of 256^2 when the field's memo kept phi_uu, phi_uv and phi_vv
# through the six checks, 36.47 when only phi, phi_u and phi_v live
# through them, and 21.50 when they and every stage hold one row block of
# 128 rows; pinned with 1.5 arrays of margin.
ANALYTIC_STAGE_PEAK = 23.0


def test_the_analytic_stage_keeps_no_second_derivative(multipole_phase_peaks):
    fd_peak, analytic_peak = multipole_phase_peaks
    assert len(fd_peak) == 1, "the analytic stage never started"
    assert analytic_peak[0] <= ANALYTIC_STAGE_PEAK, analytic_peak


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
