"""Command-line front end.

Subcommands map one-to-one onto the verification routines; each run produces
a VerificationReport whose records are name-sorted and whose stability hash
is the sha256 of the canonical report JSON with the timestamp stripped, so
identical configurations hash identically across runs.

Exit codes: 0 all checks passed, 1 at least one failed, 2 invalid input or
configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import reprlib
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

try:  # CPython's own SHA-256, which hashlib wraps without OpenSSL: no libcrypto loads
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built with neither
        from hashlib import sha256

from . import __version__
from . import verifier as V
from .currents import PowerU, ZeroU, current_general, current_to_csv
from .errors import ConelabError, InvalidInput, RegionOutOfGrid, is_finite
from .fields import (GridSpec, ScalarField, exact_spherical_wave, field_to_csv, from_expr,
                     static_multipole)
from .geometry import AdmissibleRegion
from .verifier import CheckRecord
from .weights import Potential, PowerLog, SplitWeightParams

DEFAULT_REGION = dict(rho=0.1, omega=10.0, sigma=0.1, tau=10.0)
# solve's default region, the README example's: inside the strip that the
# default T = 1 evolves, so the default run samples its field
SOLVE_REGION = dict(rho=0.25, omega=1.0, sigma=0.6, tau=5.0 / 3.0)

# glibc malloc settings for a command run: arrays up to MMAP_THRESHOLD bytes
# come from the heap, and freed heap memory is handed back to the OS only
# above TRIM_THRESHOLD, so each check's temporaries reuse the pages the last
# check freed instead of faulting fresh ones in.  Both are needed: a trim
# threshold alone turns off glibc's sliding mmap threshold, and every array
# of 128 KB or more is then mmapped and unmapped anew.  32 MiB is the largest
# mmap threshold every glibc accepts (older releases refuse more).
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 256 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers, malloc.h


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

BATTERY_LEVELS = (128, 256, 512)  # the verify-identity levels of --preset battery

# Desk-scale bounds (inclusive) on the size keys: the spatial dimension, a
# grid side (also each verify-identity level and each --refine level), a
# Gauss-Legendre node count (also at each --refine level), the length of a
# limit sequence, the radial step, final time and outer radius of solve, the
# mode index of solve and pipeline, and the profile power of solve.
# LEVEL_COUNT bounds the length of the verify-identity level list, and
# COMBO_POWER the power p of each verify-nl combo.  A value outside exits 2
# before anything is allocated.
SIZE_RANGES = {"n": (2, 10), "grid": (8, 1024), "nodes": (2, 2048), "count": (V.TAIL, 32),
               "dr": (1e-4, 1.0), "T": (1e-3, 20.0), "R": (1.0, 100.0),
               "ell": (0, 10), "power": (1, 20)}
LEVEL_COUNT = (2, 8)
COMBO_POWER = (1, 10)
# verify-nl's weight f^{2a} takes a in (0, NL_A_MAX]: its chains carry f^{2a+1}, which at
# the default region's omega = 10 is 10^{2a+1} and overflows past a = 153 (every chain
# then reads NaN); 100 keeps it under 1e201.  counterexample's a is another quantity.
NL_A_MAX = 100.0
# the keys of a potential: a solve potential may set any, a verify-nl combo only its kind
POTENTIAL_KEYS = ("kind", "c", "amplitude", "B", "beta", "p", "floor")
# solve keeps up to 1023 time slices of up to R/dr cells (of all R/dr for
# data that fill the strip), so the two keys are bounded together as well:
# R 100 with dr 1e-4 would need 8 GB.
SOLVE_CELLS = 10_000

# Rejected values are echoed at most this long: a 400-digit integer or a long
# string would otherwise fill the message.
_short = reprlib.Repr()
_short.maxstring = _short.maxother = 40


def _is_int(x) -> bool:
    return not isinstance(x, bool) and (
        isinstance(x, int) or (isinstance(x, float) and x.is_integer()))


def _check_refined(refine: int, key: str, size) -> None:
    """InvalidInput naming --refine if `size(level)` leaves SIZE_RANGES[key].

    Each level doubles the size, so the scan stops within a dozen levels.
    """
    lo, hi = SIZE_RANGES[key]
    for level in range(1, refine + 1):
        val = size(level)
        if not lo <= val <= hi:
            raise InvalidInput(
                f"--refine {_short.repr(refine)} takes {key} to {_short.repr(val)} "
                f"at level {level}, outside [{lo}, {hi}]")


def _finite_power(x: float, p: float) -> bool:
    try:
        return math.isfinite(x ** p)
    except OverflowError:  # a float power past the largest float raises
        return False


def _ranged(key: str, ok, what: str):
    """`ok` and `what` narrowed to SIZE_RANGES[key] when `key` is a size key."""
    if key not in SIZE_RANGES:
        return ok, what
    lo, hi = SIZE_RANGES[key]
    return (lambda x: ok(x) and lo <= x <= hi), f"{what} in [{lo}, {hi}]"


@dataclass
class RunConfig:
    """One JSON config object, the keys it may hold, and typed getters.

    Every getter raises InvalidInput (exit 2) on a value of the wrong type;
    reading a key outside `keys` is a programming error (KeyError).
    """

    command: str
    params: dict = dc_field(default_factory=dict)
    keys: Optional[tuple] = None
    where: str = "config"

    def __post_init__(self):
        if self.keys is None:
            self.keys = COMMANDS[self.command].keys
        unknown = sorted(set(self.params) - set(self.keys))
        if unknown:
            raise InvalidInput(
                f"unknown key {_short.repr(unknown[0])} in {self.where} for {self.command} "
                f"(accepted: {', '.join(sorted(self.keys))})")

    @classmethod
    def load(cls, command: str, path: Optional[str],
             preset: Optional[str] = None) -> "RunConfig":
        params = {}
        if path is not None:
            try:
                raw = json.loads(Path(path).read_text())
            except (OSError, ValueError) as exc:  # ValueError: also an over-long integer
                raise InvalidInput(f"cannot read config {path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise InvalidInput("config must be a JSON object")
            schema = raw.pop("schema", None)
            if schema != 1:
                raise InvalidInput(f"unsupported config schema {_short.repr(schema)} (need 1)")
            conf_cmd = raw.pop("command", None)
            if conf_cmd is not None and conf_cmd != command:
                raise InvalidInput(
                    f"config is for {_short.repr(conf_cmd)} but the {command!r} "
                    "subcommand was invoked")
            params = raw
        if preset is not None:
            params["preset"] = preset
        return cls(command=command, params=params)

    def check(self, label: str, val, ok, what: str):
        """`val` if ok(val), else InvalidInput naming `label` and `what`."""
        if not ok(val):
            raise InvalidInput(
                f"{self.where}.{label} must be {what}, got {_short.repr(val)}")
        return val

    def _get(self, key: str, default, ok, what: str):
        if key not in self.keys:
            raise KeyError(f"{self.command} reads {key!r}, which {self.where} does not accept")
        val = self.params.get(key, default)
        if val is None and default is None:
            return None
        return self.check(key, val, *_ranged(key, ok, what))

    def get_int(self, key: str, default=None) -> Optional[int]:
        val = self._get(key, default, _is_int, "an integer")
        return None if val is None else int(val)

    def get_number(self, key: str, default=None):
        """A finite int or float, returned as given."""
        return self._get(key, default, is_finite, "a finite number")

    def get_float(self, key: str, default=None) -> Optional[float]:
        val = self.get_number(key, default)
        return None if val is None else float(val)

    def get_str(self, key: str, default=None) -> Optional[str]:
        return self._get(key, default, lambda x: isinstance(x, str), "a string")

    def get_bool(self, key: str, default=None) -> Optional[bool]:
        return self._get(key, default, lambda x: isinstance(x, bool), "true or false")

    def get_list(self, key: str, default=None) -> Optional[list]:
        val = self._get(key, default, lambda x: isinstance(x, (list, tuple)), "a list")
        return None if val is None else list(val)

    def section(self, key: str, keys: tuple, default=None) -> Optional["RunConfig"]:
        """The nested object under `key`, checked against its own `keys`."""
        val = self._get(key, default, lambda x: isinstance(x, dict), "an object")
        if val is None:
            return None
        return RunConfig(self.command, dict(val), keys=keys, where=f"{self.where}.{key}")

    def region(self, default=DEFAULT_REGION) -> AdmissibleRegion:
        sec = self.section("region", tuple(default), default={})
        return AdmissibleRegion(**{k: sec.get_number(k, v) for k, v in default.items()})


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_json_safe(x) for x in obj.tolist()]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _record_dict(rec: CheckRecord) -> dict:
    return _json_safe(asdict(rec))


def build_report(command: str, records) -> dict:
    records = sorted(records, key=lambda r: r.name)
    body = {
        "schema": 1,
        "package": "conelab",
        "version": __version__,
        "command": command,
        "seed": None,  # nothing is random; kept so that stability hashes stay put
        "passed": bool(records) and all(r.passed for r in records),
        "records": [_record_dict(r) for r in records],
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["stability_hash"] = sha256(canonical.encode()).hexdigest()
    body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return body


def _fan_out(jobs):
    """Run (name, callable) jobs one after another on the calling thread and
    join their records; exceptions propagate.  One thread holds one job's
    arrays at a time, and two threads cost more CPU and RSS than they save
    wall time.  The name stays because the benchmark's tracer wraps it."""
    return [rec for _, fn in jobs for rec in fn()]


# ---------------------------------------------------------------------------
# subcommand runners (each returns a list of CheckRecords plus csv payloads)
# ---------------------------------------------------------------------------

def _battery_u_choices():
    return [("free", ZeroU()),
            ("power-u", PowerU(sign=1, p=1, V=Potential.constant(1.0)))]


def run_verify_identity(cfg: RunConfig):
    reg = cfg.region()
    n = cfg.get_int("n", 3)
    battery = cfg.check("preset", cfg.get_str("preset"), lambda x: x in (None, "battery"),
                        '"battery", the only preset') == "battery"
    if battery and "levels" in cfg.params:
        raise InvalidInput(f"{cfg.where}.levels cannot be set with preset battery, "
                           f"which runs levels {list(BATTERY_LEVELS)}")
    lo, hi = LEVEL_COUNT
    default = BATTERY_LEVELS if battery else (64, 128, 256)
    raw = cfg.check("levels", cfg.get_list("levels", default),
                    lambda x: lo <= len(x) <= hi, f"a list of {lo} to {hi} levels")
    levels = tuple(int(cfg.check(f"levels[{i}]", m, *_ranged("grid", _is_int, "an integer")))
                   for i, m in enumerate(raw))
    cfg.check("levels", levels, lambda x: len(set(x)) == len(x), "distinct grid sizes")
    # checks that share a U share the object, of which identity_checks
    # builds one stage
    u_choices = _battery_u_choices()
    checks = [(f"{wname}/{uname}", rep, U)
              for wname, rep in V.battery_weights()
              for uname, U in u_choices]
    pairs = [(rep, U) for _, rep, U in checks]
    fields = V.battery_fields()
    grids = {m: GridSpec(region=reg, n_s=m, n_y=m, n=n) for m in levels}

    def fd(fld, rep, U, stages):
        return V.identity_residual(fld, rep, U, derivative_mode="fd", stages=stages)

    def analytic(fld, rep, U, stages):
        return V.pointwise_inequality(fld, rep, U, derivative_mode="analytic", stages=stages)

    def job(fname, src, ell):
        # level first, check second: each level's field serves all six FD
        # checks, and V.identity_checks builds each identity term they share
        # once and drops it before it moves on; the field's samples go with
        # them.  The fit and the analytic checks read fields never sampled
        rels = [[r.rel_residual for r in V.identity_checks(
                    ScalarField.from_analytic(grids[m], src, ell), "fd", pairs, fd)]
                for m in levels]
        flds = [ScalarField.from_analytic(grids[m], src, ell) for m in levels]
        recs = [replace(V.identity_convergence(flds, level_rels),
                        name=f"identity-order[{fname}/{check}]")
                for (check, _, _), level_rels in zip(checks, zip(*rels))]
        # one analytic identity evaluation feeds both records of a check
        for (check, _, _), pw in zip(checks, V.identity_checks(flds[-1], "analytic", pairs,
                                                                analytic)):
            tag = f"{fname}/{check}"
            ana = pw.identity
            recs.append(CheckRecord(
                name=f"identity-analytic[{tag}]",
                passed=ana.rel_residual < V.ANALYTIC_TOL,
                value=ana.rel_residual, tolerance=V.ANALYTIC_TOL, details={}))
            recs.append(CheckRecord(
                name=f"pointwise-margin[{tag}]", passed=pw.passed,
                value=pw.margin_min,
                tolerance=V.POINTWISE_SLACK * pw.identity.residual,
                details={"identity_residual": pw.identity.residual}))
        return recs

    return _fan_out((fname, partial(job, fname, src, ell))
                    for fname, src, ell in fields), {}


def run_verify_carleman(cfg: RunConfig, refine: int):
    n = cfg.get_int("n", 3)
    nodes = cfg.get_int("nodes", 160)
    weight = cfg.section("weight", ("a", "b", "p"), default={})
    params = SplitWeightParams(a=weight.get_float("a", 1.0), b=weight.get_float("b", 0.1),
                               p=weight.get_float("p", 0.5))
    base = cfg.region()
    if not base.rho < 1.0 < base.omega:  # the branches meet at f = 1
        raise InvalidInput(f"{cfg.where}.region must have rho < 1 < omega, where the split "
                           f"branches meet, got rho={base.rho:g}, omega={base.omega:g}")
    reg_lo = AdmissibleRegion(rho=base.rho, omega=1.0, sigma=base.sigma, tau=base.tau)
    reg_hi = AdmissibleRegion(rho=1.0, omega=base.omega, sigma=base.sigma, tau=base.tau)
    m = cfg.get_int("grid", 96)
    _check_refined(refine, "nodes", lambda level: 2**level * nodes)
    grids = [GridSpec(region=reg, n_s=m, n_y=m, n=n) for reg in (reg_lo, reg_hi)]

    def chain_records(nodes_):
        """The split-chain record of every battery field on both branches and
        the smallest calibrated C and largest calibrated K (None if none); the
        checks read closed forms at the nodes, so no field is sampled."""
        recs = []
        for fname, src, ell in V.battery_fields():
            recs += [replace(V.carleman_split_check(ScalarField.from_analytic(grid, src, ell),
                                                    params, br, nodes=nodes_),
                             name=f"split-chain[{fname}/{br}]")
                     for grid, br in zip(grids, ("low", "high"))]
        cs = [r.details["c_cal"] for r in recs if r.details["c_cal"] is not None]
        ks = [r.details["k_cal"] for r in recs if r.details["k_cal"] is not None]
        return recs, (min(cs) if cs else None), (max(ks) if ks else None)

    uncalibrated = "no battery field calibrated both C and K"
    records, cmin, kmax = chain_records(nodes)
    wave = exact_spherical_wave(width=1.0, power=8)  # the battery's
    records.append(V.split_cancellation(*(ScalarField.from_analytic(grid, wave) for grid in grids),
                                        params, nodes=nodes))
    calibrated = cmin is not None and kmax is not None
    details = {"c_min": cmin, "k_max": kmax, "k_bound": V.E2_OVER_4}
    if not calibrated:
        details["error"] = uncalibrated
    records.append(CheckRecord(
        name="battery-constants", passed=calibrated and cmin >= 1.0 and kmax <= V.E2_OVER_4,
        value=cmin / kmax if calibrated else math.nan, tolerance=0.0, details=details))
    if not calibrated:
        return records, {}
    for level in range(1, refine + 1):
        scale = 2**level
        _, cmin2, kmax2 = chain_records(scale * nodes)
        details = {"c_min": [cmin, cmin2], "k_max": [kmax, kmax2]}
        if cmin2 is None or kmax2 is None:
            drift = math.nan
            details["error"] = uncalibrated
        else:
            drift = max(abs(cmin2 - cmin) / cmin, abs(kmax2 - kmax) / kmax)
        records.append(CheckRecord(
            name=f"battery-constants-stability[{level}]", passed=drift <= V.STABILITY_TOL,
            value=drift, tolerance=V.STABILITY_TOL, details=details))
    return records, {}


def _nl_combos(cfg: RunConfig):
    default = [[1, 1, "constant"], [1, 2, "power"], [-1, 3, "constant"]]
    rows = cfg.check("combos", cfg.get_list("combos", default), bool, "a nonempty list")
    lo, hi = COMBO_POWER
    out = []
    for i, row in enumerate(rows):
        cfg.check(f"combos[{i}]", row, lambda x: isinstance(x, list) and len(x) == 3,
                  "a [sign, p, kind] row")
        sgn = cfg.check(f"combos[{i}][0]", row[0], _is_int, "an integer")
        p = cfg.check(f"combos[{i}][1]", row[1], lambda x: _is_int(x) and lo <= x <= hi,
                      f"an integer in [{lo}, {hi}]")
        kind = cfg.check(f"combos[{i}][2]", row[2], lambda x: x in ("constant", "power"),
                         '"constant" or "power"')
        pot = _potential_from_config(RunConfig(cfg.command, {"kind": kind}, POTENTIAL_KEYS))
        out.append((int(sgn), int(p), pot, kind))
    return out


def run_verify_nl(cfg: RunConfig):
    n = cfg.get_int("n", 3)
    a = cfg.check("a", cfg.get_float("a", 0.1), lambda x: 0 < x <= NL_A_MAX,
                  f"a number in (0, {NL_A_MAX:g}]")
    nodes = cfg.get_int("nodes", 160)
    m = cfg.get_int("grid", 96)
    reg = cfg.region()
    # NL_A_MAX holds only near the default omega: f^{2a+1} is largest at the
    # region's omega, and where it overflows there every chain reads NaN
    cfg.check("a", a, lambda x: _finite_power(reg.omega, 2 * x + 1),
              f"a number whose omega^(2a+1) is finite at region.omega = {reg.omega:g}")
    grid = GridSpec(region=reg, n_s=m, n_y=m, n=n)
    combos = _nl_combos(cfg)
    fld = ScalarField.from_analytic(grid, exact_spherical_wave(width=1.0, power=8))
    records = []
    for sgn, p, pot, kind in combos:
        U = PowerU(sign=sgn, p=p, V=pot)
        rep = V.carleman_nl_check(fld, a, U, nodes=nodes)
        sign_word = "focusing" if sgn > 0 else "defocusing"
        records.append(CheckRecord(
            name=f"nl-chain[{sign_word}/p={p}/{kind}]",
            passed=rep.passed, value=rep.margin, tolerance=0.0,
            details={"lhs_bulk": rep.lhs_bulk, "rhs_bulk": rep.rhs_bulk,
                     "boundary": rep.boundary.as_dict(),
                     "gamma": [rep.gamma_min, rep.gamma_max]}))
    return records, {}


def run_limits(cfg: RunConfig):
    n = cfg.get_int("n", 3)
    nodes = cfg.get_int("nodes", 192)
    count = cfg.get_int("count", 6)
    delta = cfg.get_float("delta", 1.0)
    alpha = cfg.get_float("alpha", 0.25)
    beta = cfg.get_float("beta", 0.25)
    records = []
    series = {}
    for kind in ("cone_tau", "cone_sigma", "hyperboloid_rho", "hyperboloid_omega"):
        rec = V.boundary_limit_experiment(kind, n=n, delta=delta, alpha=alpha,
                                          beta=beta, count=count, nodes=nodes)
        records.append(rec)
        series[kind] = list(zip(rec.details["levels"], rec.details["values"]))
    return records, {"series": series}


def _counterexample(cfg: RunConfig, n: int):
    """(a, bundle) at config.a, by default 2n (the ell = 2 mode).  Past the builder's
    own guards, a is bounded as the mode index is and carried by an integer mode."""
    from .solver import counterexample_build

    a = cfg.get_float("a", 2.0 * n)
    bundle = counterexample_build(n=n, a=a)
    top = SIZE_RANGES["ell"][1]
    cfg.check("a", a, lambda x: x <= top * (top + n - 2),
              f"at most {top * (top + n - 2)}, ell (ell + n - 2) at ell = {top}")
    if bundle.ell < 0:
        raise InvalidInput(f"{cfg.where}.a = {a:g} is carried by no integer mode "
                           f"in n = {n}: need a = ell (ell + {n - 2})")
    return a, bundle


def run_counterexample(cfg: RunConfig):
    n = cfg.get_int("n", 3)
    a, bundle = _counterexample(cfg, n)
    r = np.linspace(0.05, 40.0, 4000)
    res = bundle.residual(r)
    res_max = float(np.max(np.abs(res)))
    umax = float(np.max(np.abs(bundle.potential(r))))
    outside = ~((r > bundle.support[0] - 1e-9) & (r < bundle.support[1] + 1e-9))
    u_out = float(np.max(np.abs(bundle.potential(r[outside]))))
    tail = np.logspace(1, 3, 31)
    slope = V.log_slope(tail, bundle.beta(tail))
    records = [
        CheckRecord(name="counterexample-residual", passed=res_max < V.RESIDUAL_TOL,
                    value=res_max, tolerance=V.RESIDUAL_TOL, details={}),
        CheckRecord(name="counterexample-tail-slope",
                    passed=abs(slope - bundle.q_minus) <= V.TAIL_SLOPE_TOL * abs(bundle.q_minus),
                    value=slope, tolerance=V.TAIL_SLOPE_TOL,
                    details={"expected": bundle.q_minus, "q_plus": bundle.q_plus,
                             "ell": bundle.ell, "a": a}),
        CheckRecord(name="counterexample-potential-support",
                    passed=bool(u_out == 0.0 and np.isfinite(umax)),
                    value=umax, tolerance=0.0,
                    details={"support": list(bundle.support),
                             "outside_max": u_out}),
    ]
    rr = np.linspace(0.1, 10.0, 512)
    series = {"beta": list(zip(rr, bundle.beta(rr))),
              "potential": list(zip(rr, bundle.potential(rr)))}
    return records, {"series": series}


def _potential_from_config(spec: Optional[RunConfig]) -> Optional[Potential]:
    if spec is None:
        return None
    kind = spec.get_str("kind")
    if kind == "constant":
        return Potential.constant(spec.get_float("c", 1.0))
    if kind == "power":
        return Potential.power_of_f(spec.get_float("c", 0.25),
                                    amplitude=spec.get_float("amplitude", 1.0))
    if kind == "saturating":
        floor = spec.check("floor", spec.get_float("floor", 0.0), lambda x: x > 0,
                           "positive for solve (V is infinite at f = 0)")
        return Potential.saturating(spec.get_float("B", 1.0),
                                    spec.get_float("beta", 2.0),
                                    spec.get_float("p", 1.0), floor=floor)
    raise InvalidInput(f"unknown potential kind {_short.repr(kind)}")


def run_solve(cfg: RunConfig):
    from .solver import CauchyData, solve, spherical_wave_data

    n = cfg.get_int("n", 3)
    profile = cfg.get_str("profile", "spherical-wave")
    T = cfg.get_float("T", 1.0)
    R = cfg.get_float("R", 6.0)
    dr = cfg.check("dr", cfg.get_float("dr", 0.02), lambda x: R / x <= SOLVE_CELLS,
                   f"at least R/{SOLVE_CELLS} = {R / SOLVE_CELLS:g}")
    ell = cfg.get_int("ell", 0)
    U = ZeroU()
    nl = cfg.section("nonlinearity", ("potential", "sign", "p"))
    if nl is not None:
        pot = _potential_from_config(nl.section("potential", POTENTIAL_KEYS,
                                                default={"kind": "constant", "c": 1.0}))
        U = PowerU(sign=nl.get_int("sign", 1), p=nl.get_float("p", 1), V=pot)
    w = cfg.check("width", cfg.get_float("width", 0.5 if profile == "gaussian" else 1.0),
                  lambda x: x > 0, "positive")
    if profile == "spherical-wave":
        data = replace(spherical_wave_data(width=w, power=cfg.get_int("power", 6)), ell=ell)
    elif profile == "gaussian":
        data = CauchyData(profile=lambda r: np.exp(-(r / w) ** 2),
                          velocity=lambda r: np.zeros_like(r), ell=ell,
                          label="gaussian")
    else:
        raise InvalidInput(f"unknown profile {_short.repr(profile)}")
    result = solve(data, T=T, R=R, dr=dr, n=n, U=U)
    records = [
        CheckRecord(name="solve-completed", passed=True,
                    value=float(result.times[-1]), tolerance=0.0,
                    details={"slices": len(result.times), "dr": result.dr,
                             "dt": result.dt, "label": data.label}),
    ]
    if U.is_zero:
        records.append(CheckRecord(
            name="solve-energy-drift", passed=result.energy_drift < V.DRIFT_TOL,
            value=result.energy_drift, tolerance=V.DRIFT_TOL, details={}))
    payload = {}
    if cfg.get_bool("sample", True):
        reg = cfg.region(SOLVE_REGION)
        m = cfg.get_int("grid", 96)
        covered, reach = True, {}
        grid = GridSpec(region=reg, n_s=m, n_y=m, n=n)
        try:
            payload["field"] = result.field_on(grid)
        except RegionOutOfGrid:  # the sample grid reaches past the evolved strip
            covered, reach = False, {
                "grid_t_max": float(np.max(np.abs(grid.T))), "grid_r_min": float(np.min(grid.R)),
                "grid_r_max": float(np.max(grid.R)), "strip_T": float(result.times[-1]),
                "strip_R": float(result.r[-1])}
        records.append(CheckRecord(
            name="solve-exterior-sample", passed=covered, value=float(covered),
            tolerance=0.0, details={"covered": covered, "region": asdict(reg), **reach}))
    return records, payload


def _pipeline_field(cfg: RunConfig, n: int):
    case = cfg.get_str("case", "zero")
    reg = cfg.region()
    m = cfg.get_int("grid", 64)
    if case == "counterexample":
        a, bundle = _counterexample(cfg, n)
        ell = cfg.check("ell", cfg.get_int("ell", bundle.ell), lambda x: x == bundle.ell,
                        f"{bundle.ell}, the mode that carries a = {a:g}")
    else:
        ell = cfg.get_int("ell", 1 if case == "multipole" else 0)
    grid = GridSpec(region=reg, n_s=m, n_y=m, n=n)
    if case == "counterexample":
        return (ScalarField.from_function(grid, lambda u, v: bundle.beta(v - u),
                                          name="counterexample", ell=ell),
                lambda u, v: bundle.potential(v - u))
    if case == "zero":
        return ScalarField.zeros(grid), None
    if case == "multipole":
        source = static_multipole(ell, n)
    elif case == "wave":
        source = exact_spherical_wave(width=1.0, power=8)
    elif case == "expr":
        source = from_expr(cfg.get_str("expr", "0*u"), label="expr")
    else:
        raise InvalidInput(f"unknown pipeline case {_short.repr(case)}")
    return ScalarField.from_analytic(grid, source, ell), None


def run_pipeline(cfg: RunConfig, refine: int):
    n = cfg.get_int("n", 3)
    beta = cfg.get_float("beta", 2.0)
    p = cfg.get_float("p", 1.0)
    nodes = cfg.get_int("nodes", 96)
    _check_refined(refine, "nodes", lambda level: 2**level * nodes)
    fld, potential = _pipeline_field(cfg, n)
    rec, series = V.uniqueness_pipeline(fld, beta=beta, p=p, potential=potential, nodes=nodes)
    records = [rec]
    verdict = rec.details["verdict"]
    for level in range(1, refine + 1):
        refined = V.uniqueness_pipeline(fld, beta=beta, p=p, potential=potential,
                                        nodes=2**level * nodes)[0].details["verdict"]
        stable = refined.split(":")[0] == verdict.split(":")[0]
        records.append(CheckRecord(
            name=f"pipeline-verdict-stability[{level}]", passed=stable,
            value=float(stable), tolerance=0.0,
            details={"verdict": verdict, "refined_verdict": refined}))
    return records, {"series": series}


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner, the config keys it reads besides "schema" and
    "command" (any other key exits 2, so a misspelling never falls back to a
    default; "preset" among them registers --preset), and whether the runner
    takes the --refine level count, levels re-run at doubled resolution."""

    run: Callable
    keys: tuple
    refinable: bool = False


COMMANDS = {
    "verify-identity": Command(run_verify_identity, ("n", "levels", "region", "preset")),
    "verify-carleman": Command(run_verify_carleman,
                               ("n", "nodes", "grid", "weight", "region"), refinable=True),
    "verify-nl": Command(run_verify_nl, ("n", "a", "nodes", "grid", "combos", "region")),
    "limits": Command(run_limits, ("n", "nodes", "count", "delta", "alpha", "beta")),
    "counterexample": Command(run_counterexample, ("n", "a")),
    "solve": Command(run_solve, ("n", "profile", "T", "R", "dr", "ell", "width", "power",
                                 "nonlinearity", "sample", "grid", "region")),
    "pipeline": Command(run_pipeline, ("n", "beta", "p", "nodes", "case", "grid", "ell", "a",
                                       "expr", "region"), refinable=True),
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _write_series_csv(path: Path, series: dict) -> None:
    import csv

    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "param", "value"])
        for name, rows in series.items():
            for param, value in rows:
                w.writerow([name, repr(float(param)), repr(float(value))])


def emit(report: dict, payload: dict, out: Optional[str], fmt: str) -> None:
    text = json.dumps(report, indent=2)
    if fmt == "json":
        if out:
            Path(out).write_text(text + "\n")
        else:
            print(text)
        return
    if fmt == "csv-bundle":
        if not out:
            raise InvalidInput("--format csv-bundle needs --out DIRECTORY")
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(text + "\n")
        if payload.get("series"):
            _write_series_csv(outdir / "series.csv", payload["series"])
        fld = payload.get("field")
        if fld is not None:
            field_to_csv(fld, outdir / "field.csv")
            cur = current_general(fld, PowerLog(1.0))
            current_to_csv(cur, outdir / "current.csv")
        return
    raise InvalidInput(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses what it does not take with its own
    usage, where argparse would leave that to the top-level parser's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Numerical verification lab for weighted energy estimates "
                    "on the exterior of the light cone.")
    parser.add_argument("--version", action="version",
                        version=f"conelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="JSON config file (schema 1)")
        sp.add_argument("--out", default=None,
                        help="output path (file for json, directory for csv-bundle)")
        sp.add_argument("--format", default="json",
                        choices=("json", "csv-bundle"))
        if "preset" in cmd.keys:
            sp.add_argument("--preset", default=None, choices=("battery",),
                            help="use the full acceptance-scale configuration")
        if cmd.refinable:
            sp.add_argument("--refine", type=int, nargs="?", const=1, default=0,
                            metavar="LEVELS",
                            help="re-run at doubled resolution LEVELS times "
                                 "(default once) and check stability")
    return parser


def _keep_freed_memory() -> None:
    """Set the malloc thresholds above; a no-op where the C library has no
    mallopt (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)


def main(argv: Optional[list] = None) -> int:
    args = make_parser().parse_args(argv)
    _keep_freed_memory()
    command = COMMANDS[args.command]
    try:
        if command.refinable and args.refine < 0:
            raise InvalidInput(f"--refine must be >= 0, got {_short.repr(args.refine)}")
        cfg = RunConfig.load(args.command, args.config, preset=getattr(args, "preset", None))
        records, payload = (command.run(cfg, args.refine) if command.refinable
                            else command.run(cfg))
        report = build_report(args.command, records)
        emit(report, payload, args.out, args.format)
        return 0 if report["passed"] else 1
    except ConelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
