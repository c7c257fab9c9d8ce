"""Command-line front end: sweeps, pseudothreshold, convergence, validation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .codes import CodeFormatError
from .harness import (DECODERS, ExperimentConfig, convergence_study, pseudothreshold,
                      read_csv, resolve_code, run_sweep)
from .osd import OsdConfig
from .sogrand import SograndParams

_OSD_STRATEGIES = {"cs": "combination_sweep", "exhaustive": "exhaustive_w"}


def _parse_p_grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_iters_grid(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _add_sim_args(sub):
    cfg = {f.name: f.default for f in fields(ExperimentConfig)}
    sog, osd = cfg["sog_params"], cfg["osd_config"]
    iters = ", ".join(f"{name} {dec.n_iter}" for name, dec in DECODERS.items())
    sub.add_argument("--code", required=True, help="code file path or builtin:NAME")
    sub.add_argument("--decoder", default=cfg["decoder"], choices=tuple(DECODERS))
    sub.add_argument("--p", required=True, type=_parse_p_grid,
                     help="comma-separated physical error rates")
    sub.add_argument("--trials", type=int, default=cfg["trials"])
    sub.add_argument("--iters", type=int, default=cfg["n_iter"],
                     help=f"max decoding iterations (default per decoder: {iters})")
    sub.add_argument("--list-size", type=int, default=sog.list_max)
    sub.add_argument("--query-budget", type=int, default=sog.query_budget)
    sub.add_argument("--osd-order", type=int, default=osd.order_w)
    sub.add_argument("--osd-strategy", choices=tuple(_OSD_STRATEGIES),
                     default={v: k for k, v in _OSD_STRATEGIES.items()}[osd.strategy])
    sub.add_argument("--alpha", type=float, default=cfg["alpha"])
    sub.add_argument("--seed", type=int, default=cfg["master_seed"])
    sub.add_argument("--max-failures", type=int, default=cfg["max_failures"])


def _config_from_args(args, out_path=None) -> ExperimentConfig:
    return ExperimentConfig(
        code=args.code, decoder=args.decoder, p_grid=tuple(args.p),
        trials=args.trials, n_iter=args.iters,
        sog_params=SograndParams(list_max=args.list_size,
                                 query_budget=args.query_budget),
        osd_config=OsdConfig(order_w=args.osd_order,
                             strategy=_OSD_STRATEGIES[args.osd_strategy]),
        alpha=args.alpha, master_seed=args.seed, out_path=out_path,
        max_failures=args.max_failures)


def cmd_sim(args) -> int:
    cfg = _config_from_args(args, out_path=args.out)
    points = run_sweep(cfg)
    for pt in points:
        print(f"p={pt.p:g} decoder={pt.decoder_id} trials={pt.trials} "
              f"failures={pt.failures} bler={pt.bler:.6g} "
              f"ci=[{pt.wilson_ci_low:.3g}, {pt.wilson_ci_high:.3g}] "
              f"mean_iters={pt.mean_iterations:.3g} osd_rate={pt.osd_rate:.3g}")
    if args.out:
        print(f"wrote {args.out} (+ {args.out}.meta.json)")
    return 0


def cmd_threshold(args) -> int:
    curve = read_csv(args.infile)
    p_th = pseudothreshold(curve, args.k)
    if p_th is None:
        print("pseudothreshold: not bracketed by the supplied curve")
        return 1
    print(f"pseudothreshold p_th = {p_th:.6g} (k = {args.k})")
    return 0


def cmd_convergence(args) -> int:
    points = convergence_study(_config_from_args(args), args.iters_grid)
    print("n_iter,bler,failures,trials,mean_iters")
    for n_iter, pt in zip(args.iters_grid, points):
        print(f"{n_iter},{pt.bler:.6g},{pt.failures},{pt.trials},"
              f"{pt.mean_iterations:.4g}")
    return 0


def cmd_validate(args) -> int:
    try:
        code = resolve_code(args.code)
    except CodeFormatError as exc:
        print(f"INVALID: {exc}")
        return 1
    x, z = (f"{g.component.m_c}x{g.component.n_c}" for g in (code.x_graph, code.z_graph))
    same = code.x_graph.component == code.z_graph.component
    print(f"OK: {code.name} [[{code.n},{code.k},{code.d}]] "
          f"x_checks={code.x_graph.m} z_checks={code.z_graph.m} "
          + (f"component={x}" if same else f"x_component={x} z_component={z}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgldpc",
                                     description="GLDPC/SOGRAND decoding simulator "
                                                 "for CSS quantum Tanner codes")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("sim", help="run a Monte Carlo BLER sweep")
    _add_sim_args(sim)
    sim.add_argument("--out", default=None, help="output CSV path")
    sim.set_defaults(func=cmd_sim)

    thr = subs.add_parser("threshold", help="pseudothreshold from a sweep CSV")
    thr.add_argument("--in", dest="infile", required=True)
    thr.add_argument("--k", type=int, required=True)
    thr.set_defaults(func=cmd_threshold)

    conv = subs.add_parser("convergence", help="BLER vs iteration budget")
    _add_sim_args(conv)
    conv.add_argument("--iters-grid", type=_parse_iters_grid, required=True,
                      help="e.g. 1:20 or 1,2,5,10")
    conv.set_defaults(func=cmd_convergence)

    val = subs.add_parser("validate", help="check a code file's invariants")
    val.add_argument("--code", required=True)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # bad input (options, code name, code file): one line, no traceback
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"qgldpc {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
