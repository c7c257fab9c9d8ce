"""Monte Carlo engine: sample, decode, degeneracy-aware success check,
BLER curves with Wilson intervals, pseudothreshold and convergence studies.

All randomness is keyed by (master seed, error rate, trial index), so curves are
bit-reproducible and trials are paired across decoder variants and iteration
budgets (common random numbers).  Trials run in chunks: one syndrome gather, one
decoder call (one decode per distinct syndrome, and one kernel call per iteration
for graphs that share a component) and one success check per chunk, on (T, n)
arrays; only OSD goes trial by trial.  Trial order and grouping change no result.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
from dataclasses import asdict, astuple, dataclass, replace
from typing import Callable, Iterator, NamedTuple, get_type_hints

import numpy as np

from . import channel as ch
from .codes import GldpcCode, builtin_code, load_code
# nothing here calls the one-trial views imported, but bench/spans.py wraps them
from .gldpc import (DecodeResult, Side, decode_correlated, decode_correlated_trials,
                    decode_independent, decode_independent_trials, sogrand_side)
from .minsum import BpConfig, minsum_decode, minsum_side
from .osd import OsdConfig, osd_postprocess
from .sogrand import SograndParams

# Trials decode in lock-step chunks.  A SOGRAND kernel call holds a few (rows,
# queries) arrays, rows = trials x checks of both graphs (both decoders stack
# them in one call when the graphs share a component): this bound keeps each
# under 1 MiB, and per-call overhead is paid per chunk and iteration, not per trial.
CHUNK_CELLS = 1 << 17


class Decoder(NamedTuple):
    decode: Callable[..., DecodeResult]  # (code, priors, s_x, s_z, n_iter, side)
    side: Callable[..., Side]  # (graph, s, cfg) -> the check rule of one graph
    osd: bool                  # post-process the sides that did not converge
    n_iter: int                # default iteration budget


def _minsum(graph, s, cfg) -> Side:
    return minsum_side(graph.syndrome, s, cfg.alpha)


def _sogrand(graph, s, cfg) -> Side:
    return sogrand_side(graph, s, cfg.sog_params)


DECODERS = {
    "bp": Decoder(decode_independent_trials, _minsum, osd=False, n_iter=100),
    "bp-osd": Decoder(decode_independent_trials, _minsum, osd=True, n_iter=100),
    "sogrand": Decoder(decode_independent_trials, _sogrand, osd=False, n_iter=20),
    "sogrand-osd": Decoder(decode_independent_trials, _sogrand, osd=True, n_iter=20),
    "sogrand-osd-corr": Decoder(decode_correlated_trials, _sogrand, osd=True, n_iter=20),
}


@dataclass(frozen=True)
class ExperimentConfig:
    code: str | os.PathLike        # code file path or "builtin:NAME"
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
        ch.check_count("trials", self.trials, 1)
        if self.max_failures is not None:
            ch.check_count("max_failures", self.max_failures, 1)
        try:  # a sequence or 1-D array of real numbers, kept as Python floats
            grid = tuple(self.p_grid)
        except TypeError:  # not iterable
            grid = (None,)
        if not grid or not all(isinstance(p, numbers.Real) for p in grid):
            raise ValueError(f"p_grid must be a non-empty sequence of numbers, got {self.p_grid!r}")
        object.__setattr__(self, "p_grid", tuple(map(float, grid)))
        for p in self.p_grid:
            ch.check_decoding_p(p)
        BpConfig(alpha=self.alpha, n_iter=self.resolved_n_iter())  # checks both
        for name, kind in (("sog_params", SograndParams), ("osd_config", OsdConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):  # else a sweep fails at its first use, or never
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
        ch.check_count("master_seed", self.master_seed, 0)

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


# one CSV column per CurvePoint field, in field order, written and parsed by its type
CSV_HEADER = ["p", "decoder", "trials", "failures", "bler",
              "ci_low", "ci_high", "mean_iters", "osd_rate", "seed"]
_CSV_TYPES = tuple(get_type_hints(CurvePoint).values())


def resolve_code(source: str | os.PathLike) -> GldpcCode:
    source = os.fspath(source)
    if source.startswith("builtin:"):
        return builtin_code(source.split(":", 1)[1])
    return load_code(source)


def wilson_interval(failures: int, trials: int):
    """95% Wilson score interval; stays informative at zero failures."""
    z = 1.959963984540054
    if trials <= 0 or not 0 <= failures <= trials:
        raise ValueError("need trials > 0 and 0 <= failures <= trials, "
                         f"got failures={failures}, trials={trials}")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # exact at no and at all failures, where rounding leaves 5.55e-17 and 1 - 2^-53
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    return lo, 1.0 if failures == trials else min(1.0, center + half)


def _tail(code: GldpcCode, result: DecodeResult, e: ch.PauliErrorPattern, s_x, s_z,
          osd_cfg: OsdConfig | None, q: float) -> Iterator[bool]:
    """Each trial's failure, in index order: on either side, its residual
    e ^ e_hat is no stabilizer (an estimate that misses its syndrome s = H e is
    one such case; see ``GldpcCode``).  The whole chunk is judged at once.  With
    ``osd_cfg``, a trial's sides that did not converge are OSD'd (their estimates
    replaced in place) and the trial judged again when its failure is taken: a
    caller that stops early OSDs no trial past its stop."""
    sides = ((result.z_side, code.x_graph, s_z), (result.x_side, code.z_graph, s_x))

    def failed(rows=slice(None)):
        return ~(code.hz_space.contains(e.e_z[rows] ^ result.z_side.e_hat[rows])
                 & code.hx_space.contains(e.e_x[rows] ^ result.x_side.e_hat[rows]))

    for t, (conv, fail) in enumerate(zip(result.converged.tolist(), failed().tolist())):
        if osd_cfg is not None and not conv:
            for side, graph, s in sides:
                if not side.converged[t]:
                    side.e_hat[t] = osd_postprocess(graph.flat, s[t], side.app[t], osd_cfg, q)
            fail = bool(failed(slice(t, t + 1))[0])
        yield fail


def chunk_size(code: GldpcCode, sog_params: SograndParams) -> int:
    """Trials per lock-step chunk: CHUNK_CELLS over one trial's kernel cells."""
    cells = sum(g.m * sog_params.resolve_budget(g.component.n_c, g.component.m_c)
                for g in (code.x_graph, code.z_graph))
    return max(1, CHUNK_CELLS // cells)


def run_trials(code: GldpcCode, cfg: ExperimentConfig, p: float,
               start: int, stop: int) -> Iterator[TrialRecord]:
    """Records of trials start, ..., stop - 1, in index order.  Per chunk:
    sample its trials from their own keys, take the syndromes and decode in
    lock-step; then, record by record, OSD and the degeneracy-aware success
    check (``_tail``).  A record never depends on its trial's chunk, and a
    caller that stops inside a chunk (``max_failures``) runs no OSD past it."""
    params = ch.DepolarizingParams(p)
    priors = ch.make_priors(params, code.n)
    decoder = DECODERS[cfg.decoder]
    osd_cfg = cfg.osd_config if decoder.osd else None
    size = chunk_size(code, cfg.sog_params)
    for lo in range(start, stop, size):
        trials = range(lo, min(lo + size, stop))
        e = ch.sample_errors(params, code.n, cfg.master_seed, trials)
        s_x, s_z = ch.syndromes(code, e)
        result = decoder.decode(code, priors, s_x, s_z, cfg.resolved_n_iter(),
                                lambda graph, s: decoder.side(graph, s, cfg))
        converged, iterations = result.converged.tolist(), result.iterations_used.tolist()
        failed = _tail(code, result, e, s_x, s_z, osd_cfg, params.p_eff)
        for t, conv, it, fail in zip(trials, converged, iterations, failed):
            yield TrialRecord(trial_index=t, seed=cfg.master_seed, converged=conv,
                              osd_invoked=decoder.osd and not conv,
                              iterations_used=it, logical_failure=fail)


def run_trial(code: GldpcCode, cfg: ExperimentConfig, p: float,
              trial_index: int) -> TrialRecord:
    """One-trial view of ``run_trials``; only tests and bench/ use it."""
    return next(run_trials(code, cfg, p, trial_index, trial_index + 1))


def run_point(code: GldpcCode, cfg: ExperimentConfig, p: float) -> CurvePoint:
    """Aggregate trials 0, 1, ... up to cfg.trials, or up to the trial that
    brings the failures to cfg.max_failures; later records are discarded."""
    failures = iters_sum = osd_count = trials_run = 0
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


def run_sweep(cfg: ExperimentConfig) -> list[CurvePoint]:
    code = resolve_code(cfg.code)
    points: list[CurvePoint] = []
    if cfg.out_path:  # an unwritable path fails before any point runs
        write_csv(points, cfg.out_path)
        write_metadata(cfg, cfg.out_path + ".meta.json")
    for p in cfg.p_grid:
        points.append(run_point(code, cfg, p))
        if cfg.out_path:  # a crash loses only the point in progress
            write_csv(points, cfg.out_path)
    return points


def _write_atomically(path: str, text: str) -> None:
    """Write ``path`` through a temp file beside it and ``os.replace``, so
    that a crash leaves the old file or the new one, never a part."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def write_csv(points: list[CurvePoint], path: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    writer.writerows([f"{v:.12g}" if kind is float else v
                      for v, kind in zip(astuple(pt), _CSV_TYPES)] for pt in points)
    _write_atomically(path, buf.getvalue())


def read_csv(path: str) -> list[CurvePoint]:
    points = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in CSV_HEADER if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path}: missing columns {', '.join(missing)}")
            for row in reader:
                try:
                    points.append(CurvePoint(*(kind(row[c])
                                               for c, kind in zip(CSV_HEADER, _CSV_TYPES))))
                except (TypeError, ValueError) as exc:  # a short row reads None
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    return points


def write_metadata(cfg: ExperimentConfig, path: str) -> None:
    obj = asdict(cfg)
    obj["n_iter_resolved"] = cfg.resolved_n_iter()
    # numpy scalars, which the configs accept, stay JSON numbers
    _write_atomically(path, json.dumps(obj, indent=1, default=lambda v: v.item()
                                       if isinstance(v, np.generic) else str(v)) + "\n")


def uncoded_bler(p: float, k: int) -> float:
    """Reference failure rate of k idle qubits: 1 - (1-p)^k."""
    return -math.expm1(k * math.log1p(-p))


def pseudothreshold(curve: list[CurvePoint], k: int) -> float | None:
    """Crossing of bler(p) with the uncoded reference, by log-log interpolation.

    Returns None when the curve never brackets a crossing (points with
    bler = 0 cannot enter the interpolation and are skipped).
    """
    if k < 1:
        raise ValueError(f"k (logical qubits) must be >= 1, got {k}")
    pts = sorted((c for c in curve if c.bler > 0.0), key=lambda c: c.p)
    if len(pts) < 2:
        return None
    logs = [(math.log(c.p), math.log(c.bler) - math.log(uncoded_bler(c.p, k)))
            for c in pts]
    for (x0, f0), (x1, f1) in zip(logs, logs[1:]):
        if f0 == 0.0:
            return math.exp(x0)
        if f0 * f1 < 0.0:
            return math.exp(x0 - f0 * (x1 - x0) / (f1 - f0))
    if logs[-1][1] == 0.0:
        return math.exp(logs[-1][0])
    return None


def convergence_study(cfg: ExperimentConfig, iters_grid: list[int]) -> list[CurvePoint]:
    """BLER versus iteration budget at the one p of cfg.p_grid, under common
    randomness: one point per budget, in ``iters_grid`` order."""
    if len(cfg.p_grid) != 1:
        raise ValueError(f"a convergence study runs at one p, got {cfg.p_grid}")
    if not iters_grid:
        raise ValueError("the iteration grid is empty")
    # every budget runs all trials, so that the points stay paired; each
    # budget's config is checked before the first point runs
    configs = [replace(cfg, n_iter=n_iter, max_failures=None) for n_iter in iters_grid]
    code = resolve_code(cfg.code)
    return [run_point(code, c, cfg.p_grid[0]) for c in configs]
