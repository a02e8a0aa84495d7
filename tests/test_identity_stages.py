"""The identity's shared stages (verifier.IdentityStages): the checks of a job
read each term built once, to the bits of a check that builds its own, and
no stage outlives its last reader or the job."""

import gc
import json
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conelab import cli
from conelab import verifier as V
from conelab.currents import UTerms, WeightTerms
from conelab.fields import GridSpec, materialize
from conelab.geometry import AdmissibleRegion
from conelab.verifier import IdentityStages, _identity_arrays

REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
FIELDS = {name: (src, ell) for name, src, ell in V.battery_fields()}
# the job's six checks, in its order (weight outer, U inner), each U one object
U_CHOICES = [U for _, U in cli._battery_u_choices()]
CHECKS = [(rep, U) for _, rep in V.battery_weights() for U in U_CHOICES]
ARRAY_256 = 256 * 256 * 8  # bytes of one 256 x 256 float64 array


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_shared_stages_give_the_bits_of_one_check_evaluations(name, mode):
    src, ell = FIELDS[name]
    grid = GridSpec(region=REGION, n_s=24, n_y=24, n=3, ell=ell)
    fld = materialize(src, grid)
    stages = IdentityStages(CHECKS)
    for rep, U in CHECKS:
        got = _identity_arrays(fld, rep, U, mode, stages)
        # a fresh field, whose derivatives and stages serve this check alone
        want = _identity_arrays(materialize(src, grid), rep, U, mode)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]
        assert got[3].keys() == want[3].keys()
        for key in want[3]:
            assert got[3][key].tobytes() == want[3][key].tobytes(), key
    assert not stages._live


def _stage_refs(stage):
    """Weak references to what a stage built: its arrays and term objects."""
    if isinstance(stage, tuple):
        return [r for part in stage for r in _stage_refs(part)]
    if isinstance(stage, (np.ndarray, UTerms, WeightTerms)):
        return [weakref.ref(stage)]
    return []


def test_no_stage_outlives_its_last_reader_or_is_reachable_from_a_field(monkeypatch):
    # the job's flow on two levels: FD orders, then the analytic checks on a
    # fresh copy of the finest field
    built, kinds = [], []
    real = IdentityStages._take

    def take(self, key, owners, readers, build):
        def tracked():
            stage = build()
            refs = _stage_refs(stage)
            built.extend(refs)
            kinds.extend(type(r()).__name__ for r in refs)
            return stage
        return real(self, key, owners, readers, tracked)

    monkeypatch.setattr(IdentityStages, "_take", take)
    src, ell = FIELDS["spherical-wave"]
    sampled = [materialize(src, GridSpec(region=REGION, n_s=m, n_y=m, n=3, ell=ell))
               for m in (16, 32)]
    finest = replace(sampled[-1])
    stages = IdentityStages(CHECKS)
    for rep, U in CHECKS:
        V.identity_convergence(sampled, rep, U, stages=stages)
    assert not stages._live
    for rep, U in CHECKS:
        V.pointwise_inequality(finest, rep, U, derivative_mode="analytic", stages=stages)
    assert not stages._live
    # per field (2 FD levels, 1 analytic copy): 2 U stages and 3 weight stages
    assert kinds.count("UTerms") == 3 * 2 and kinds.count("WeightTerms") == 3 * 3
    del stages
    gc.collect()
    assert built and not [r for r in built if r() is not None]
    for fld in (*sampled, finest):
        assert set(vars(fld)) <= {"grid", "values", "closed_form", "name", "_derivs"}


def test_a_check_outside_the_plan_builds_its_own_stages():
    src, ell = FIELDS["oscillatory"]
    fld = materialize(src, GridSpec(region=REGION, n_s=20, n_y=20, n=3, ell=ell))
    stages = IdentityStages(CHECKS[:2])
    other = V.battery_weights()[1][1]
    got = _identity_arrays(fld, other, CHECKS[0][1], "analytic", stages)
    want = _identity_arrays(fld, other, CHECKS[0][1], "analytic")
    assert got[1].tobytes() == want[1].tobytes()
    assert not [k for k in stages._live if id(other) in k]


def test_verify_identity_checks_that_share_a_u_share_the_object(tmp_path, monkeypatch):
    # stages are keyed by the U object, so a U rebuilt per weight (whose
    # potential's lambdas make equal-looking copies compare unequal) would
    # build its stage once per weight
    seen = []
    made = []
    lock = threading.Lock()
    real_conv = V.identity_convergence
    real_init = IdentityStages.__init__

    def conv(fields, rep, U, **kw):
        with lock:
            seen.append((rep, U))
        return real_conv(fields, rep, U, **kw)

    def init(self, checks):
        made.append(self)
        real_init(self, checks)

    monkeypatch.setattr(V, "identity_convergence", conv)
    monkeypatch.setattr(IdentityStages, "__init__", init)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "levels": [16, 32]}))
    cli.main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert len(seen) == 30
    assert len({id(U) for _, U in seen}) == 2 and len({id(rep) for rep, _ in seen}) == 3
    assert len(made) == 5 and not any(s._live for s in made)


# tracemalloc peak of one default-level job (levels 64, 128, 256, its grids'
# arrays built inside it) when every check built every term: 43.01 arrays of
# 256^2, the same for each of the five fields.  Sharing the terms must not
# buy its time with memory.
UNSHARED_JOB_PEAK = 43.0


def test_one_verify_identity_job_peaks_no_higher_than_unshared_checks(tmp_path, monkeypatch):
    peaks = {}

    def fan_out(jobs):
        out = []
        for name, fn in jobs:
            if name not in ("spherical-wave", "multipole"):
                continue
            tracemalloc.start()
            try:
                out.extend(fn())
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1] / ARRAY_256
                tracemalloc.stop()
        return out

    monkeypatch.setattr(cli, "_fan_out", fan_out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1}))
    cli.main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert set(peaks) == {"spherical-wave", "multipole"}
    for name, peak in peaks.items():
        assert peak <= UNSHARED_JOB_PEAK, (name, peak)
