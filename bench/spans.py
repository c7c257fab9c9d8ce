"""Per-layer spans taken from outside the package.

The tracer replaces the module-level names that ``harness``, ``gldpc``,
``sogrand`` and ``osd`` look up at call time with timing wrappers, and
puts the originals back on exit.  The package is not instrumented.

Each wrapper records one span: its duration goes to its parent's child
time, and duration minus child time is its self time.  The root span is
``harness.run_point``, so the self times of all spans add up to the traced
wall time; the root's self time is the ``run_point`` loop and everything
in ``run_trial`` outside the timed children.  Tracer bookkeeping falls in
the parent's self time; its total cost is reported as ``trace.overhead``
against an untraced pass over the same trials.
"""

from __future__ import annotations

import types
from collections import Counter
from time import perf_counter_ns

from qgldpc import channel, gf2, gldpc, harness, sogrand

# layer -> [(owner, attribute)] of the callables timed for that layer
LAYERS = {
    "channel": [(channel, "trial_rng"), (channel, "sample_error"),
                (channel, "syndromes"), (channel, "make_priors")],
    "orbgrand": [(sogrand, "RankedInput"), (sogrand, "rank_flip_table")],
    "sogrand": [(gldpc, "sogrand_decode")],
    "gldpc": [(harness, "decode_independent"), (harness, "decode_correlated")],
    "minsum": [(harness, "minsum_decode")],
    "osd": [(harness, "osd_postprocess")],
    "gf2": [(gf2, "row_reduce"), (gf2.RowSpace, "contains")],
    "harness": [(harness, "run_point"), (harness, "run_trial")],
}


class Tracer:
    """Context manager: while active, every callable in ``LAYERS`` is a span.

    It may be entered many times; its totals accumulate.
    """

    def __init__(self):
        self.cells: dict[str, list[int]] = {}  # "layer.attr" -> [calls, self ns]
        self.stats: Counter = Counter()        # decoder facts from return values
        self._child_ns = [0]  # per open span; the base collects root spans
        self._saved: list[tuple[object, str, object]] = []

    @property
    def wall_ns(self) -> int:
        return self._child_ns[0]

    def calls(self, key: str) -> int:
        return self.cells.get(key, (0, 0))[0]

    def self_ns(self, key: str) -> int:
        return self.cells.get(key, (0, 0))[1]

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls(f"{layer}.{attr}") for _, attr in LAYERS[layer])

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.self_ns(f"{layer}.{attr}") for _, attr in LAYERS[layer])

    def __enter__(self):
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                key = f"{layer}.{attr}"
                if attr == "RankedInput":
                    # sogrand uses this class only through RankedInput.from_llr
                    span = types.SimpleNamespace(from_llr=self._span(key, original.from_llr))
                else:
                    span = self._span(key, original, _OBSERVERS.get(attr))
                setattr(owner, attr, span)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _span(self, key, fn, observe=None):
        cell = self.cells.setdefault(key, [0, 0])
        child_ns = self._child_ns
        stats = self.stats

        def span(*args, **kwargs):
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                cell[0] += 1
                cell[1] += dt - child_ns.pop()
                child_ns[-1] += dt
            if observe is not None:
                observe(stats, out)
            return out

        return span


def _observe_sogrand(stats, out):
    stats["sogrand.queries"] += out.queries_used
    stats["sogrand.found"] += out.found
    stats["sogrand.listed"] += len(out.cand.patterns) if out.cand is not None else 0


def _observe_decode(prefix):
    def observe(stats, out):
        stats[prefix + ".iterations"] += out.iterations_used
        stats[prefix + ".converged"] += out.converged
    return observe


def _observe_trial(stats, rec):
    stats["trials"] += 1
    stats["failures"] += rec.logical_failure
    stats["osd_trials"] += rec.osd_invoked
    stats["osd_rescued"] += rec.osd_invoked and not rec.logical_failure


_OBSERVERS = {
    "sogrand_decode": _observe_sogrand,
    "decode_independent": _observe_decode("gldpc"),
    "decode_correlated": _observe_decode("gldpc"),
    "minsum_decode": _observe_decode("minsum"),
    "run_trial": _observe_trial,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, list_max: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced trials, as name -> (value, unit).

    ``list_max`` is the SOGRAND list size the trials ran with.  A layer the
    workload never calls reports zeros.
    """
    st = tr.stats
    trials = st["trials"]
    calls = {layer: tr.layer_calls(layer) for layer in LAYERS}

    def share(layer):
        return (_ratio(tr.layer_self_ns(layer), tr.wall_ns), "ratio")

    def self_per(ns, n, unit):
        return (_ratio(ns, n) / {"us": 1e3, "ms": 1e6}[unit], unit)

    def per_call(layer, unit):
        return self_per(tr.layer_self_ns(layer), calls[layer], unit)

    def per_trial(layer):
        return self_per(tr.layer_self_ns(layer), trials, "us")

    def count(layer):
        return (calls[layer], "count")

    return {
        "channel.calls": count("channel"),
        "channel.self_us_per_trial": per_trial("channel"),
        "channel.share": share("channel"),
        "orbgrand.calls": count("orbgrand"),
        "orbgrand.self_us_per_call": per_call("orbgrand", "us"),
        "orbgrand.share": share("orbgrand"),
        "sogrand.calls": count("sogrand"),
        "sogrand.calls_per_trial": (_ratio(calls["sogrand"], trials), "calls/trial"),
        "sogrand.self_us_per_call": per_call("sogrand", "us"),
        "sogrand.share": share("sogrand"),
        "sogrand.queries_mean": (_ratio(st["sogrand.queries"], calls["sogrand"]), "queries"),
        "sogrand.found_rate": (_ratio(st["sogrand.found"], calls["sogrand"]), "ratio"),
        "sogrand.list_fill":
            (_ratio(st["sogrand.listed"], calls["sogrand"] * list_max), "ratio"),
        "gldpc.calls": count("gldpc"),
        "gldpc.self_ms_per_call": per_call("gldpc", "ms"),
        "gldpc.share": share("gldpc"),
        "gldpc.iterations_mean": (_ratio(st["gldpc.iterations"], calls["gldpc"]), "iter"),
        "gldpc.converged_rate": (_ratio(st["gldpc.converged"], calls["gldpc"]), "ratio"),
        "minsum.calls": count("minsum"),
        "minsum.self_ms_per_call": per_call("minsum", "ms"),
        "minsum.share": share("minsum"),
        "minsum.iterations_mean": (_ratio(st["minsum.iterations"], calls["minsum"]), "iter"),
        "minsum.converged_rate": (_ratio(st["minsum.converged"], calls["minsum"]), "ratio"),
        "osd.calls": count("osd"),
        "osd.self_ms_per_call": per_call("osd", "ms"),
        "osd.share": share("osd"),
        "osd.rescue_rate": (_ratio(st["osd_rescued"], st["osd_trials"]), "ratio"),
        "gf2.row_reduce.calls": (tr.calls("gf2.row_reduce"), "count"),
        "gf2.row_reduce.self_ms_per_call":
            self_per(tr.self_ns("gf2.row_reduce"), tr.calls("gf2.row_reduce"), "ms"),
        "gf2.contains.calls": (tr.calls("gf2.contains"), "count"),
        "gf2.contains.self_us_per_call":
            self_per(tr.self_ns("gf2.contains"), tr.calls("gf2.contains"), "us"),
        "gf2.share": share("gf2"),
        "harness.self_us_per_trial": per_trial("harness"),
        "harness.share": share("harness"),
        "bler": (_ratio(st["failures"], trials), "ratio"),
    }
