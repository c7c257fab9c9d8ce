"""Iterative GLDPC decoding: one flooding driver for every decoder.

Messages live on edges, in check-major order, behind a trial axis: a chunk
of trials decodes in lock-step, each trial leaving once its hard decision
reproduces its syndrome.  Each iteration a check rule (a ``Side``: SOGRAND on
the component code from ``sogrand_side``, all checks and active trials of a
side in one block, or min-sum from ``minsum.minsum_side``) maps the messages
to extrinsic ones, and a variable-node fusion combines them with the channel
prior (binary per side, or Pauli beliefs across both graphs).  A decode
returns one ``SideResult`` per side, whose (T, ...) arrays hold every trial
of the chunk.  Each step is row-wise: trial order and grouping change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gf2
from .channel import ChannelPrior, as_bits, check_count, clamp_llr
from .codes import GldpcCode, TannerGraph
# nothing here calls sogrand_decode, but bench/spans.py wraps gldpc.sogrand_decode
from .sogrand import SograndParams, decode_block, sogrand_decode

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
    # check rule: (A, E) v2c and (A, m) syndromes of the active trials -> (A, E) c2v
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]


def flood(sides: list[Side], L0: list[np.ndarray], n_iter: int,
          fuse=None) -> list[SideResult]:
    """Run the flooding schedule on T trials in lock-step.

    ``L0`` holds each side's channel LLRs, shared by every trial: the first
    messages.  ``fuse`` maps the sides' (A, E) c2v messages of the A active
    trials to per-side APP LLRs, v2c messages and hard decisions; None fuses
    each side alone (binary).  A trial leaves once all its sides meet their
    syndromes.  Returns one ``SideResult`` per side, each with its own copy
    of the joint convergence flags.
    """
    check_count("n_iter", n_iter, 1)
    L0 = [np.asarray(L, dtype=float) for L in L0]
    if any(np.isnan(L).any() for L in L0):
        raise ValueError("channel LLRs must not be NaN")
    S = [as_bits("syndromes", side.s) for side in sides]
    T = S[0].shape[0]
    for side, s, L in zip(sides, S, L0):
        m, n = side.check.H.shape
        if s.shape != (T, m) or L.shape != (n,):
            raise ValueError(f"syndromes of shape {s.shape} and LLRs of shape "
                             f"{L.shape} do not fit (T, {m}) and a {m}x{n} check matrix")

    # flattened, an edge of the a-th active trial points at variable a*n + v:
    # bincount then adds each bin's weights in edge order, as for one trial
    var = [(side.edge_var + L.size * np.arange(T)[:, None]).ravel()
           for side, L in zip(sides, L0)]
    active, s_active = np.arange(T), S
    v2c = [np.tile(L[side.edge_var], (T, 1)) for side, L in zip(sides, L0)]
    out = [SideResult(e_hat=np.empty((T, L.size), dtype=np.uint8), app=np.empty((T, L.size)),
                      converged=np.zeros(T, dtype=bool), iterations_used=np.zeros(T, dtype=int))
           for L in L0]
    for it in range(1, n_iter + 1):
        c2v = [side.rule(msg, s) for side, msg, s in zip(sides, v2c, s_active)]
        if fuse is None:
            app = [L + np.bincount(v[:c.size], c.ravel(), len(c) * L.size).reshape(-1, L.size)
                   for L, v, c in zip(L0, var, c2v)]
            v2c = [clamp_llr(a.ravel()[v[:c.size]] - c.ravel()).reshape(c.shape)
                   for a, v, c in zip(app, var, c2v)]
            e_hat = [(a < 0).astype(np.uint8) for a in app]  # L_APP >= 0 -> 0
        else:
            app, v2c, e_hat = fuse(c2v)
        ok = np.logical_and.reduce([(side.check(e) == s).all(axis=1)
                                    for side, e, s in zip(sides, e_hat, s_active)])
        if it < n_iter and not ok.any():
            continue
        done = ok | (it == n_iter)
        rows = active[done]
        for r, e, a in zip(out, e_hat, app):
            r.e_hat[rows], r.app[rows] = e[done], a[done]
            r.converged[rows], r.iterations_used[rows] = ok[done], it
        if done.all():
            return out
        active, v2c = active[~done], [msg[~done] for msg in v2c]
        s_active = [s[active] for s in S]


def sogrand_side(graph: TannerGraph, s, sog_params: SograndParams) -> Side:
    """SOGRAND at every check node of ``graph`` and active trial as one block:
    row a*m + j is check j's local view in the a-th active trial."""
    comp = graph.component

    def rule(v2c, s_active):
        return decode_block(comp, v2c.reshape(-1, comp.n_c), s_active.reshape(-1, comp.m_c),
                            sog_params).L_E.reshape(v2c.shape)

    return Side(edge_var=graph.edge_var, check=graph.syndrome, s=s, rule=rule)


def decode_independent_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                              n_iter: int, side: Callable[..., Side]) -> DecodeResult:
    """Decode e_z on the X graph and e_x on the Z graph apart, by the rules ``side(graph, s)``."""
    z_side, = flood([side(code.x_graph, s_z)], [priors.llr_z], n_iter)
    x_side, = flood([side(code.z_graph, s_x)], [priors.llr_x], n_iter)
    return DecodeResult(z_side=z_side, x_side=x_side)


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


def _pauli_fuse(prior: np.ndarray, graphs, c2v):
    """Pauli-belief fusion of the (X graph, Z graph) messages of A trials:
    the messages are (A, E), the beliefs (A, n, [2,] 4).

    The hard decision is the most likely Pauli, not the marginals' signs."""
    bel = [_beliefs_from_llr(c[:, g.vn_edge], pair) for g, pair, c in zip(graphs, _PAIRS, c2v)]
    P_app = prior * bel[0].prod(axis=-2) * bel[1].prod(axis=-2)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    symbol = _argmax_pauli(P_app)

    e_hat = [((symbol == bit) | (symbol == _Y)).astype(np.uint8) for bit, _ in _PAIRS]
    app = [_marginal_llr(P_app, pair) for pair in _PAIRS]
    # Extrinsic: divide out the incoming belief, marginalize per graph.
    v2c = [np.empty_like(c) for c in c2v]
    for g, pair, msg, b in zip(graphs, _PAIRS, v2c, bel):
        ext = P_app[..., None, :] / np.maximum(b, BELIEF_FLOOR)
        msg[:, g.vn_edge] = _marginal_llr(ext, pair)
    return app, v2c, e_hat


def decode_correlated_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                             n_iter: int, side: Callable[..., Side]) -> DecodeResult:
    """Joint X/Z decoding of T trials, with Pauli-belief fusion at the variables.

    Check nodes on both graphs still run a binary rule; variable nodes map
    the four incoming binary LLRs into Pauli beliefs, fuse them with the
    channel's Pauli prior, and marginalize the extrinsic beliefs back into
    binary LLRs for each graph.  A trial stops when both syndrome equations hold.
    """
    prior = np.asarray(priors.pauli_prior, dtype=float)
    if prior.shape != (code.n, 4):
        raise ValueError(f"Pauli prior has shape {prior.shape}, expected {(code.n, 4)}")
    graphs = (code.x_graph, code.z_graph)
    sides = [side(g, s) for g, s in zip(graphs, (s_z, s_x))]
    L0 = [_marginal_llr(prior, pair) for pair in _PAIRS]  # channel marginals: first messages
    z_side, x_side = flood(sides, L0, n_iter, fuse=lambda c2v: _pauli_fuse(prior, graphs, c2v))
    return DecodeResult(z_side=z_side, x_side=x_side)


def decode_correlated(code: GldpcCode, priors: ChannelPrior, s_x, s_z, n_iter: int = 20,
                      sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """One-trial SOGRAND view of ``decode_correlated_trials``; only tests and bench/ use it."""
    return decode_correlated_trials(code, priors, np.asarray(s_x)[None], np.asarray(s_z)[None],
                                    n_iter, lambda g, s: sogrand_side(g, s, sog_params)).row(0)
