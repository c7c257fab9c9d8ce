"""Command-line front end: sweeps, pseudothreshold, convergence, validation."""

from __future__ import annotations

import argparse
import sys

from .codes import CodeFormatError
from .harness import (DECODERS, ConvergenceRow, ExperimentConfig, convergence_study,
                      pseudothreshold, read_csv, resolve_code, run_sweep)
from .osd import OsdConfig
from .sogrand import SograndParams


def _parse_p_grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_iters_grid(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _add_sim_args(sub):
    sub.add_argument("--code", required=True, help="code file path or builtin:NAME")
    sub.add_argument("--decoder", default="sogrand", choices=tuple(DECODERS))
    sub.add_argument("--p", required=True, type=_parse_p_grid,
                     help="comma-separated physical error rates")
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--iters", type=int, default=None,
                     help="max decoding iterations (default 20, or 100 for bp)")
    sub.add_argument("--list-size", type=int, default=4)
    sub.add_argument("--query-budget", type=int, default=None)
    sub.add_argument("--osd-order", type=int, default=9)
    sub.add_argument("--osd-strategy", choices=("cs", "exhaustive"), default="cs")
    sub.add_argument("--alpha", type=float, default=0.625)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-failures", type=int, default=None)


def _config_from_args(args, out_path=None) -> ExperimentConfig:
    strategy = "combination_sweep" if args.osd_strategy == "cs" else "exhaustive_w"
    return ExperimentConfig(
        code=args.code, decoder=args.decoder, p_grid=tuple(args.p),
        trials=args.trials, n_iter=args.iters,
        sog_params=SograndParams(list_max=args.list_size,
                                 query_budget=args.query_budget),
        osd_config=OsdConfig(order_w=args.osd_order, strategy=strategy),
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
    cfg = _config_from_args(args)
    try:
        rows: list[ConvergenceRow] = convergence_study(cfg, args.iters_grid)
    except ValueError as exc:
        print(f"qgldpc convergence: error: {exc}", file=sys.stderr)
        return 2
    print("n_iter,bler,failures,trials,mean_iters")
    for row in rows:
        pt = row.point
        print(f"{row.n_iter},{pt.bler:.6g},{pt.failures},{pt.trials},"
              f"{pt.mean_iterations:.4g}")
    return 0


def cmd_validate(args) -> int:
    try:
        code = resolve_code(args.code)
    except CodeFormatError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(f"OK: {code.name} [[{code.n},{code.k},{code.d}]] "
          f"x_checks={code.x_graph.m} z_checks={code.z_graph.m} "
          f"component={code.x_graph.component.m_c}x{code.x_graph.component.n_c}")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
