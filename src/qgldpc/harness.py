"""Monte Carlo engine: sample, decode, degeneracy-aware success check,
BLER curves with Wilson intervals, pseudothreshold and convergence studies.

All randomness is keyed by (master seed, error rate, trial index), so
curves are bit-reproducible and trials are paired across decoder variants
and iteration budgets (common random numbers).  Trials decode in lock-step
chunks, one decoder call per chunk; the order and grouping of trials never
change a result.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import channel as ch
from .codes import GldpcCode, builtin_code, load_code
# nothing here calls the one-trial views imported, but bench/spans.py wraps them
from .gldpc import (DecodeResult, SideResult, decode_correlated, decode_correlated_trials,
                    decode_independent, decode_independent_trials)
from .minsum import BpConfig, minsum_decode, minsum_decode_trials
from .osd import OsdConfig, osd_postprocess
from .sogrand import SograndParams

# Trials decode in lock-step chunks.  A SOGRAND kernel call holds a few (rows,
# queries) arrays, rows = trials x checks of a side: this bound keeps each under
# 512 KiB, and per-call overhead is paid per chunk and iteration, not per trial.
CHUNK_CELLS = 1 << 16


class Decoder(NamedTuple):
    # (code, priors, (T, m) s_x and s_z, n_iter, sog_params, alpha) -> T DecodeResults
    decode: Callable[..., list[DecodeResult]]
    osd: bool        # post-process the sides that did not converge
    n_iter: int      # default iteration budget


def _bp(code, priors, s_x, s_z, n_iter, sog, alpha) -> list[DecodeResult]:
    cfg = BpConfig(alpha=alpha, n_iter=n_iter)
    z_sides = minsum_decode_trials(code.x_graph.syndrome, priors.llr_z, s_z, cfg)
    x_sides = minsum_decode_trials(code.z_graph.syndrome, priors.llr_x, s_x, cfg)
    return [DecodeResult(z_side=z, x_side=x) for z, x in zip(z_sides, x_sides, strict=True)]


def _sogrand(code, priors, s_x, s_z, n_iter, sog, alpha) -> list[DecodeResult]:
    return decode_independent_trials(code, priors, s_x, s_z, n_iter, sog)


def _sogrand_corr(code, priors, s_x, s_z, n_iter, sog, alpha) -> list[DecodeResult]:
    return decode_correlated_trials(code, priors.pauli_prior, s_x, s_z, n_iter, sog)


DECODERS = {
    "bp": Decoder(_bp, osd=False, n_iter=100),
    "bp-osd": Decoder(_bp, osd=True, n_iter=100),
    "sogrand": Decoder(_sogrand, osd=False, n_iter=20),
    "sogrand-osd": Decoder(_sogrand, osd=True, n_iter=20),
    "sogrand-osd-corr": Decoder(_sogrand_corr, osd=True, n_iter=20),
}

CSV_HEADER = ["p", "decoder", "trials", "failures", "bler",
              "ci_low", "ci_high", "mean_iters", "osd_rate", "seed"]


@dataclass(frozen=True)
class ExperimentConfig:
    code: str                      # path or "builtin:NAME"
    decoder: str = "sogrand"
    p_grid: tuple[float, ...] = (0.05,)
    trials: int = 1000
    n_iter: int | None = None      # default: the decoder's, 20 for sogrand, 100 for bp
    sog_params: SograndParams = SograndParams()
    osd_config: OsdConfig = OsdConfig()
    alpha: float = 0.625
    master_seed: int = 0
    out_path: str | None = None
    max_failures: int | None = None  # optional early stop per grid point

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}; "
                             f"choose from {tuple(DECODERS)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        for p in self.p_grid:
            if not 0.0 < p < 0.75:
                raise ValueError(f"p grid values must lie in (0, 3/4), got {p}")

    def resolved_n_iter(self) -> int:
        if self.n_iter is not None:
            return self.n_iter
        return DECODERS[self.decoder].n_iter


@dataclass
class TrialRecord:
    trial_index: int
    seed: int
    converged: bool
    osd_invoked: bool
    iterations_used: int
    logical_failure: bool


@dataclass
class CurvePoint:
    p: float
    decoder_id: str
    trials: int
    failures: int
    bler: float
    wilson_ci_low: float
    wilson_ci_high: float
    mean_iterations: float
    osd_rate: float
    seed: int


def resolve_code(source: str) -> GldpcCode:
    if source.startswith("builtin:"):
        return builtin_code(source.split(":", 1)[1])
    return load_code(source)


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval; stays informative at zero failures."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _maybe_osd(code: GldpcCode, decoder: str, result: DecodeResult,
               s_x, s_z, osd_cfg: OsdConfig, p: float) -> bool:
    """Post-process non-converged sides in place; returns True if OSD ran."""
    if not DECODERS[decoder].osd:
        return False
    q = 2.0 * p / 3.0
    ran = False
    for side, h, s in ((result.z_side, code.h_x, s_z), (result.x_side, code.h_z, s_x)):
        if not side.converged:
            side.e_hat = osd_postprocess(h, s, side.app, osd_cfg, q)
            side.converged = side.osd_invoked = ran = True
    return ran


def _side_success(code: GldpcCode, side: SideResult, e_true, s, z_side: bool) -> bool:
    graph = code.x_graph if z_side else code.z_graph
    if not np.array_equal(graph.syndrome(side.e_hat), s):
        return False
    residual = (e_true ^ side.e_hat).astype(np.uint8)
    if z_side:
        return code.z_residual_is_stabilizer(residual)
    return code.x_residual_is_stabilizer(residual)


def chunk_size(code: GldpcCode, sog_params: SograndParams) -> int:
    """Trials per lock-step chunk: CHUNK_CELLS over one trial's kernel cells."""
    cells = max(g.m * sog_params.resolve_budget(g.component.n_c, g.component.m_c)
                for g in (code.x_graph, code.z_graph))
    return max(1, CHUNK_CELLS // cells)


def run_trials(code: GldpcCode, cfg: ExperimentConfig, p: float,
               start: int, stop: int) -> Iterator[TrialRecord]:
    """Records of trials start, ..., stop - 1, in index order: sample -> syndrome
    -> decode a chunk in lock-step -> OSD and degeneracy-aware success check per
    trial, as records are taken.  A record never depends on its trial's chunk."""
    params = ch.DepolarizingParams(p)
    priors = ch.make_priors(params, code.n)
    decoder = DECODERS[cfg.decoder]
    size = chunk_size(code, cfg.sog_params)
    for lo in range(start, stop, size):
        trials = range(lo, min(lo + size, stop))
        errors = [ch.sample_error(params, code.n, ch.trial_rng(cfg.master_seed, p, t))
                  for t in trials]
        s_x, s_z = map(np.array, zip(*(ch.syndromes(code, e) for e in errors)))
        results = decoder.decode(code, priors, s_x, s_z, cfg.resolved_n_iter(),
                                 cfg.sog_params, cfg.alpha)
        for t, e, sx, sz, result in zip(trials, errors, s_x, s_z, results):
            iterations, converged_before_osd = result.iterations_used, result.converged
            osd_ran = _maybe_osd(code, cfg.decoder, result, sx, sz, cfg.osd_config, p)
            ok = (_side_success(code, result.z_side, e.e_z, sz, z_side=True)
                  and _side_success(code, result.x_side, e.e_x, sx, z_side=False))
            yield TrialRecord(trial_index=t, seed=cfg.master_seed,
                              converged=converged_before_osd, osd_invoked=osd_ran,
                              iterations_used=iterations, logical_failure=not ok)


def run_trial(code: GldpcCode, cfg: ExperimentConfig, p: float,
              trial_index: int) -> TrialRecord:
    """The record of one trial: a one-trial view of ``run_trials``."""
    return next(run_trials(code, cfg, p, trial_index, trial_index + 1))


def run_point(code: GldpcCode, cfg: ExperimentConfig, p: float) -> CurvePoint:
    """Aggregate trials 0, 1, ... up to cfg.trials, or up to the trial that
    brings the failures to cfg.max_failures; later records are discarded."""
    failures = 0
    iters_sum = 0
    osd_count = 0
    trials_run = 0
    for rec in run_trials(code, cfg, p, 0, cfg.trials):
        trials_run += 1
        failures += rec.logical_failure
        iters_sum += rec.iterations_used
        osd_count += rec.osd_invoked
        if cfg.max_failures is not None and failures >= cfg.max_failures:
            break
    lo, hi = wilson_interval(failures, trials_run)
    return CurvePoint(p=p, decoder_id=cfg.decoder, trials=trials_run,
                      failures=failures, bler=failures / trials_run,
                      wilson_ci_low=lo, wilson_ci_high=hi,
                      mean_iterations=iters_sum / trials_run,
                      osd_rate=osd_count / trials_run, seed=cfg.master_seed)


def run_sweep(cfg: ExperimentConfig, code: GldpcCode | None = None) -> list[CurvePoint]:
    if code is None:
        code = resolve_code(cfg.code)
    points = [run_point(code, cfg, p) for p in cfg.p_grid]
    if cfg.out_path:
        write_csv(points, cfg.out_path)
        write_metadata(cfg, cfg.out_path + ".meta.json")
    return points


def write_csv(points: list[CurvePoint], path: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for pt in points:
                writer.writerow([
                    f"{pt.p:.12g}", pt.decoder_id, pt.trials, pt.failures,
                    f"{pt.bler:.12g}", f"{pt.wilson_ci_low:.12g}",
                    f"{pt.wilson_ci_high:.12g}", f"{pt.mean_iterations:.12g}",
                    f"{pt.osd_rate:.12g}", pt.seed,
                ])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_csv(path: str) -> list[CurvePoint]:
    points = []
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                points.append(CurvePoint(
                    p=float(row["p"]), decoder_id=row["decoder"],
                    trials=int(row["trials"]), failures=int(row["failures"]),
                    bler=float(row["bler"]), wilson_ci_low=float(row["ci_low"]),
                    wilson_ci_high=float(row["ci_high"]),
                    mean_iterations=float(row["mean_iters"]),
                    osd_rate=float(row["osd_rate"]), seed=int(row["seed"])))
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    return points


def write_metadata(cfg: ExperimentConfig, path: str) -> None:
    obj = asdict(cfg)
    obj["n_iter_resolved"] = cfg.resolved_n_iter()
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, default=str)
        fh.write("\n")


def uncoded_bler(p: float, k: int) -> float:
    """Reference failure rate of k idle qubits: 1 - (1-p)^k."""
    return -math.expm1(k * math.log1p(-p))


def pseudothreshold(curve: list[CurvePoint], k: int) -> float | None:
    """Crossing of bler(p) with the uncoded reference, by log-log interpolation.

    Returns None when the curve never brackets a crossing (points with
    bler = 0 cannot enter the interpolation and are skipped).
    """
    pts = sorted((c for c in curve if c.bler > 0.0), key=lambda c: c.p)
    if len(pts) < 2:
        return None
    logs = [(math.log(c.p), math.log(c.bler) - math.log(uncoded_bler(c.p, k)))
            for c in pts]
    for (x0, f0), (x1, f1) in zip(logs, logs[1:]):
        if f0 == 0.0:
            return math.exp(x0)
        if f0 * f1 < 0.0:
            x = x0 - f0 * (x1 - x0) / (f1 - f0)
            return math.exp(x)
    if logs[-1][1] == 0.0:
        return math.exp(logs[-1][0])
    return None


@dataclass
class ConvergenceRow:
    n_iter: int
    point: CurvePoint


def convergence_study(cfg: ExperimentConfig, iters_grid: list[int],
                      code: GldpcCode | None = None) -> list[ConvergenceRow]:
    """BLER versus iteration budget at the one p of cfg.p_grid, under common randomness."""
    if len(cfg.p_grid) != 1:
        raise ValueError(f"a convergence study runs at one p, got {len(cfg.p_grid)}: "
                         f"{cfg.p_grid}")
    if code is None:
        code = resolve_code(cfg.code)
    # every budget runs all trials, so that the rows stay paired
    return [ConvergenceRow(n_iter=n_iter, point=run_point(
                code, replace(cfg, n_iter=n_iter, max_failures=None), cfg.p_grid[0]))
            for n_iter in iters_grid]
