"""Iterative GLDPC decoding: one flooding driver for every decoder.

Messages live on edges, in check-major order, behind a trial axis: ``flood``
decodes the T trials of one ``Side`` in lock-step, each distinct syndrome once,
and a trial leaves once its hard decision reproduces its syndrome.  Each
iteration the side's check rule (SOGRAND from ``sogrand_side``, all checks and
active rows in one block, or min-sum from ``minsum.minsum_side``) maps the
messages to extrinsic ones, and a fusion combines them with the channel prior at
the variables: binary, or Pauli beliefs on a correlated decode's paired side.
Equal rules (SOGRAND's value (component, params), min-sum's per check-degree
layout) take one call per iteration for both graphs' checks, paired or the two
sides of an independent decode.  Each step is row-wise: trial order and grouping
change nothing, and trials with equal syndromes, which start from the same
``L0``, have equal results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from . import gf2
from .channel import LLR_CLAMP, ChannelPrior, as_llr, check_count, clamp_llr
from .codes import ComponentCode, GldpcCode, TannerGraph, vn_edges
# nothing here calls sogrand_decode, but bench/spans.py wraps gldpc.sogrand_decode
from .sogrand import SograndParams, block_kernel, sogrand_decode

BELIEF_FLOOR = 1e-12

# Pauli belief columns, and argmax tie preference I < X < Z < Y.
_I, _X, _Y, _Z = 0, 1, 2, 3
_TIE_ORDER = np.array([_I, _X, _Z, _Y])
# (bit, other) of each graph: the Pauli that flips the component its messages are
# about (e_z on the X graph, e_x on the Z graph) and the one that leaves it.
_PAIRS = ((_Z, _X), (_X, _Z))


@dataclass
class SideResult:
    """One side's decode of T trials; row t is trial t."""

    e_hat: np.ndarray            # (T, n) uint8 estimates
    app: np.ndarray              # (T, n) final per-bit APP LLRs
    converged: np.ndarray        # (T,) bool: the estimate met its syndrome
    iterations_used: np.ndarray  # (T,)

    def row(self, t: int) -> SideResult:
        """Trial t alone: 1-D arrays (views into this chunk's), a bool and an int."""
        return SideResult(e_hat=self.e_hat[t], app=self.app[t],
                          converged=bool(self.converged[t]),
                          iterations_used=int(self.iterations_used[t]))


@dataclass
class DecodeResult:
    z_side: SideResult  # estimates of e_z (decoded on the X graph)
    x_side: SideResult  # estimates of e_x (decoded on the Z graph)

    def __post_init__(self):
        if np.shape(self.z_side.converged) != np.shape(self.x_side.converged):
            raise ValueError("the two sides hold different numbers of trials")

    @property
    def converged(self):
        return self.z_side.converged & self.x_side.converged

    @property
    def iterations_used(self):
        return np.maximum(self.z_side.iterations_used, self.x_side.iterations_used)

    def row(self, t: int) -> DecodeResult:
        return DecodeResult(z_side=self.z_side.row(t), x_side=self.x_side.row(t))


@dataclass(frozen=True)
class Side:
    """One binary syndrome-decoding problem of T trials for the flooding driver."""

    edge_var: np.ndarray   # (E,) variable node of each edge, check-major order
    check: gf2.Syndrome    # e -> H e
    s: np.ndarray          # (T, m) target syndromes, one row per trial
    # check rule: (A, E) v2c and (A, m) syndromes of active trials -> (A, E) c2v; it need
    # not hash, only compare: equal rules take one call per iteration for both graphs
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]


def flood(side: Side, L0, n_iter: int, fuse=None) -> SideResult:
    """Run the flooding schedule on the T trials of ``side`` in lock-step.

    ``L0`` holds the channel LLRs shared by every trial: the first messages.
    ``fuse`` maps the (A, E) c2v messages of the A active trials to (A, n)
    APP LLRs, (A, E) v2c messages and (A, n) hard decisions; None fuses in
    binary (``_binary_fuse``).  A trial leaves once it meets its syndrome.
    Trials with equal syndromes share one decode, and the loop, ``_lockstep``, may
    stack other sides' rows in its rule calls: both need a row-wise rule and fusion.
    """
    return _lockstep([(side, L0, fuse)], n_iter)[0]


def _lockstep(problems, n_iter: int) -> list[SideResult]:
    """The loop behind ``flood``, for (side, L0, fuse) problems whose sides share one rule
    and message width: each iteration, one rule call takes every side's active rows, stacked."""
    check_count("n_iter", n_iter, 1)
    live = runs = [_Run(*problem) for problem in problems]
    for it in range(1, n_iter + 1):
        if len(live) == 1:  # nothing to stack, and no list to build
            live = live if live[0].step(live[0].rule(live[0].v2c, live[0].s), it, n_iter) else []
        else:
            c2v = live[0].rule(np.concatenate([r.v2c for r in live]),
                               np.concatenate([r.s for r in live]))
            c2v = [c2v[e - len(r.s):e] for r, e in zip(live, accumulate(len(r.s) for r in live))]
            live = [r for r, c in zip(live, c2v) if r.step(c, it, n_iter)]
        if not live:
            return [SideResult(*(a[r.twin] for a in r.out)) for r in runs]


class _Run:
    """One side of ``_lockstep``: its rows still running, and the results of those that left."""

    def __init__(self, side: Side, L0, fuse):
        L0, S = as_llr("channel LLRs", L0), gf2.as_bits("syndromes", side.s)
        m, n = side.check.H.shape
        if S.shape != S.shape[:1] + (m,) or L0.shape != (n,):  # a 0-d S fails here too
            raise ValueError(f"syndromes of shape {S.shape} and LLRs of shape "
                             f"{L0.shape} do not fit (T, {m}) and a {m}x{n} check matrix")
        # each distinct syndrome decodes once; its twins get copies (``_tail`` writes
        # OSD estimates into them), and with no twins the results pass as they are.
        # m = 0 leaves no keys, and nothing to share.
        keys = np.ascontiguousarray(np.packbits(S, axis=1))  # F-order S packs to F-order
        _, first, twin = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                   return_index=True, return_inverse=True)
        self.twin, S = (twin, S[first]) if 0 < len(first) < len(S) else (slice(None), S)
        T, self.check, self.rule, self.s = len(S), side.check, side.rule, S
        self.fuse = fuse or _binary_fuse(L0, side.edge_var, T)
        self.rows, self.v2c = np.arange(T), np.tile(L0[side.edge_var], (T, 1))
        self.out = np.empty((T, n), np.uint8), np.empty((T, n)), np.zeros(T, bool), np.zeros(T, int)

    def step(self, c2v, it: int, n_iter: int) -> bool:
        """Iteration ``it``: the rows that meet their syndromes (all at n_iter) leave."""
        app, v2c, e_hat = self.fuse(c2v)
        ok = (self.check(e_hat) == self.s).all(axis=1)
        if it == n_iter or ok.any():
            done = ok | (it == n_iter)
            for field, value in zip(self.out, (e_hat[done], app[done], ok[done], it)):
                field[self.rows[done]] = value
            self.rows, self.s, v2c = self.rows[~done], self.s[~done], v2c[~done]
        self.v2c = v2c
        return self.rows.size > 0


def _binary_fuse(L0: np.ndarray, edge_var: np.ndarray, T: int):
    """Binary fusion for up to T active trials: a variable's APP LLR is L0 plus
    its c2v messages, and each edge's v2c message leaves its own out."""
    # flattened, an edge of the a-th active trial points at variable a*n + v:
    # bincount then adds each bin's weights in edge order, as for one trial
    var = (edge_var + L0.size * np.arange(T)[:, None]).ravel()

    def fuse(c2v):
        v = var[:c2v.size]
        app = L0 + np.bincount(v, c2v.ravel(), len(c2v) * L0.size).reshape(-1, L0.size)
        v2c = app.ravel()[v] - c2v.ravel()  # clamped in place: no E-sized temporaries
        np.minimum(np.maximum(v2c, -LLR_CLAMP, out=v2c), LLR_CLAMP, out=v2c)
        return app, v2c.reshape(c2v.shape), (app < 0).view(np.uint8)  # L_APP >= 0 -> 0; a view
    return fuse


def _paired(x: Side, z: Side, n: int) -> Side:
    """The X graph's side (e_z, variables 0..n-1) and the Z graph's (e_x,
    n..2n-1) as one side: block-diagonal checks, syndromes [s_z | s_x]."""
    S = [gf2.as_bits("syndromes", sd.s) for sd in (x, z)]
    (mx, _), (mz, _), T = x.check.H.shape, z.check.H.shape, S[0].shape[:1]
    if S[0].shape != T + (mx,) or S[1].shape != T + (mz,):
        raise ValueError(f"syndromes of shapes {S[0].shape} and {S[1].shape} do not "
                         f"fit (T, {mx}) and (T, {mz}) for the X and Z graphs")
    H, ex = np.zeros((mx + mz, 2 * n)), x.edge_var.size
    H[:mx, :n], H[mx:, n:] = x.check.H, z.check.H

    def split(v2c, s_active):  # each graph's rule on its own edges and checks
        return np.concatenate([x.rule(v2c[:, :ex], s_active[:, :mx]),
                               z.rule(v2c[:, ex:], s_active[:, mx:])], axis=1)
    return Side(edge_var=np.concatenate([x.edge_var, z.edge_var + n]), check=gf2.Syndrome(H),
                s=np.concatenate(S, axis=1), rule=x.rule if x.rule == z.rule else split)


@dataclass(frozen=True)
class SograndRule:
    """SOGRAND at every check, as a value: row a*m + j is check j in active trial a."""

    component: ComponentCode
    params: SograndParams

    def __call__(self, v2c, s_active):  # no input checks: ``flood`` has made decode_block's
        comp = self.component
        return block_kernel(comp, v2c.reshape(-1, comp.n_c), s_active.reshape(-1, comp.m_c),
                            self.params).L_E.reshape(v2c.shape)


def sogrand_side(graph: TannerGraph, s, sog_params: SograndParams) -> Side:
    """SOGRAND at every check node of ``graph``."""
    return Side(edge_var=graph.edge_var, check=graph.syndrome, s=s,
                rule=SograndRule(graph.component, sog_params))


def decode_independent_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                              n_iter: int, side: Callable[..., Side]) -> DecodeResult:
    """Decode e_z on the X graph and e_x on the Z graph apart, by the rules ``side(graph, s)``:
    in lock-step, one rule call per iteration, if the rules are equal and the widths match."""
    z, x = side(code.x_graph, s_z), side(code.z_graph, s_x)
    problems = [(z, priors.llr_z, None), (x, priors.llr_x, None)]
    if z.rule == x.rule and (z.edge_var.size, len(z.check.H)) == (x.edge_var.size, len(x.check.H)):
        return DecodeResult(*_lockstep(problems, n_iter))
    return DecodeResult(*(_lockstep([problem], n_iter)[0] for problem in problems))


def decode_independent(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                       n_iter: int = 20,
                       sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """One-trial SOGRAND view of ``decode_independent_trials``; only tests and bench/ use it."""
    return decode_independent_trials(code, priors, np.asarray(s_x)[None], np.asarray(s_z)[None],
                                     n_iter, lambda g, s: sogrand_side(g, s, sog_params)).row(0)


def _beliefs_from_llr(L: np.ndarray, pair) -> np.ndarray:
    """Map a binary LLR message about one error component into Pauli beliefs that
    say nothing about the other: with q = 1/(1+exp(L)) and ``(bit, other) = pair``,
    P(bit) = P(Y) = q/2 and P(I) = P(other) = (1-q)/2."""
    bit, other = pair
    q = np.exp(-np.logaddexp(0.0, L))
    out = np.empty(L.shape + (4,))
    out[..., bit] = out[..., _Y] = 0.5 * q
    out[..., _I] = out[..., other] = 0.5 * (1.0 - q)
    return out


def _marginal_llr(P: np.ndarray, pair) -> np.ndarray:
    bit, other = pair
    num = P[..., _I] + P[..., other]
    den = P[..., bit] + P[..., _Y]
    return clamp_llr(np.log(np.maximum(num, BELIEF_FLOOR))
                     - np.log(np.maximum(den, BELIEF_FLOOR)))


def _argmax_pauli(P_app: np.ndarray) -> np.ndarray:
    """Per-qubit argmax over the last axis, with tie order I, X, Z, Y."""
    return _TIE_ORDER[np.argmax(P_app[..., _TIE_ORDER], axis=-1)]


def _pauli_fuse(prior: np.ndarray, edges, c2v):
    """Pauli-belief fusion of a paired side's (A, E) messages of A trials, gathered
    by its (2n, 2) ``vn_edges``: e_z's variables, then e_x's; beliefs are (A, n,
    [2,] 4).  Returns (A, 2n) APP LLRs and hard decisions and (A, E) v2c messages.

    The hard decision is the most likely Pauli, not the marginals' signs."""
    halves = edges.reshape(2, len(prior), 2)  # per graph, each variable's two edges
    bel = [_beliefs_from_llr(c2v[:, e], pair) for e, pair in zip(halves, _PAIRS)]
    P_app = prior * bel[0].prod(axis=-2) * bel[1].prod(axis=-2)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    symbol = _argmax_pauli(P_app)

    e_hat = np.concatenate([(symbol == bit) | (symbol == _Y) for bit, _ in _PAIRS], axis=1)
    app = np.concatenate([_marginal_llr(P_app, pair) for pair in _PAIRS], axis=1)
    # Extrinsic: divide out the incoming belief, marginalize per graph.
    v2c = np.empty_like(c2v)
    for e, pair, b in zip(halves, _PAIRS, bel):
        v2c[:, e] = _marginal_llr(P_app[..., None, :] / np.maximum(b, BELIEF_FLOOR), pair)
    return app, v2c, e_hat.astype(np.uint8)


def decode_correlated_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                             n_iter: int, side: Callable[..., Side]) -> DecodeResult:
    """Joint X/Z decoding of T trials as one paired side (``_paired``), with
    Pauli-belief fusion at the variables: the checks of both graphs run a
    binary rule; each variable maps its four incoming LLRs into Pauli beliefs,
    fuses them with the channel's Pauli prior and marginalizes the extrinsic
    beliefs back into binary LLRs per graph, which must give every variable
    exactly two edges.  A trial stops when both syndrome equations hold."""
    prior = np.asarray(priors.pauli_prior, dtype=float)
    if prior.shape != (code.n, 4):
        raise ValueError(f"Pauli prior has shape {prior.shape}, expected {(code.n, 4)}")
    paired = _paired(side(code.x_graph, s_z), side(code.z_graph, s_x), code.n)
    edges = vn_edges(paired.edge_var, 2 * code.n)
    L0 = np.concatenate([_marginal_llr(prior, pair) for pair in _PAIRS])  # first messages
    r = flood(paired, L0, n_iter, fuse=lambda c2v: _pauli_fuse(prior, edges, c2v))
    z_side, x_side = (SideResult(e_hat=r.e_hat[h], app=r.app[h], converged=r.converged.copy(),
                                 iterations_used=r.iterations_used.copy())
                      for h in (np.s_[:, :code.n], np.s_[:, code.n:]))
    return DecodeResult(z_side=z_side, x_side=x_side)


def decode_correlated(code: GldpcCode, priors: ChannelPrior, s_x, s_z, n_iter: int = 20,
                      sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """One-trial SOGRAND view of ``decode_correlated_trials``; only tests and bench/ use it."""
    return decode_correlated_trials(code, priors, np.asarray(s_x)[None], np.asarray(s_z)[None],
                                    n_iter, lambda g, s: sogrand_side(g, s, sog_params)).row(0)
