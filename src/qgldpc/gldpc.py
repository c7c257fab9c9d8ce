"""Iterative GLDPC decoding: one flooding driver for every decoder.

Messages live on edges, in check-major order, behind a trial axis: a chunk
of trials decodes in lock-step, each trial leaving once its hard decision
reproduces its syndrome.  Each iteration a check rule maps the messages to
extrinsic ones (SOGRAND on the component code here, all checks and active
trials of a side in one block; scaled min-sum in ``minsum``), and a
variable-node fusion combines them with the channel prior (binary per side,
or Pauli beliefs across both graphs).  Every step is row-wise, so the order
and grouping of trials never change a result; the one-trial functions are
views of the batched ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gf2
from .channel import ChannelPrior, PauliErrorPattern, clamp_llr
from .codes import GldpcCode, TannerGraph
# nothing here calls sogrand_decode, but bench/spans.py wraps gldpc.sogrand_decode
from .sogrand import SograndParams, decode_block, sogrand_decode

BELIEF_FLOOR = 1e-12

# Pauli belief columns, and argmax tie preference I < X < Z < Y.
_I, _X, _Y, _Z = 0, 1, 2, 3
_TIE_ORDER = np.array([_I, _X, _Z, _Y])


@dataclass
class SideResult:
    e_hat: np.ndarray
    converged: bool
    iterations_used: int
    app: np.ndarray                      # final per-bit APP LLRs
    syndrome_trace: list[bool] = field(default_factory=list)
    osd_invoked: bool = False


@dataclass
class DecodeResult:
    z_side: SideResult  # estimate of e_z (decoded on the X graph)
    x_side: SideResult  # estimate of e_x (decoded on the Z graph)

    @property
    def converged(self) -> bool:
        return self.z_side.converged and self.x_side.converged

    @property
    def e_hat(self) -> PauliErrorPattern:
        return PauliErrorPattern(e_x=self.x_side.e_hat, e_z=self.z_side.e_hat)

    @property
    def iterations_used(self) -> int:
        return max(self.z_side.iterations_used, self.x_side.iterations_used)


@dataclass(frozen=True)
class Side:
    """One binary syndrome-decoding problem of T trials for the flooding driver."""

    edge_var: np.ndarray   # (E,) variable node of each edge, check-major order
    check: gf2.Syndrome    # e -> H e
    s: np.ndarray          # (T, m) target syndromes, one row per trial
    # check rule: (A, E) v2c and (A, m) syndromes of the active trials -> (A, E) c2v
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]


def flood(sides: list[Side], L0: list[np.ndarray], n_iter: int,
          fuse=None) -> list[list[SideResult]]:
    """Run the flooding schedule on T trials in lock-step.

    ``L0`` holds each side's channel LLRs, shared by every trial: the first
    messages.  ``fuse`` maps the sides' (A, E) c2v messages of the A active
    trials to per-side APP LLRs, v2c messages and hard decisions; None fuses
    each side alone (binary).  A trial leaves once all its sides meet their
    syndromes.  Returns, for each trial, one ``SideResult`` per side, with
    the joint convergence flag.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    L0 = [np.asarray(L, dtype=float) for L in L0]
    S = [np.asarray(side.s, dtype=np.uint8) % 2 for side in sides]
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
    results: list = [None] * T
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
        ok = np.logical_and.reduce([(side.check(e.T) == s.T).all(axis=0)
                                    for side, e, s in zip(sides, e_hat, s_active)])
        if it < n_iter and not ok.any():
            continue
        done = ok | (it == n_iter)
        for i in np.flatnonzero(done):
            results[active[i]] = [SideResult(e_hat=e[i], converged=bool(ok[i]),
                                             iterations_used=it, app=a[i],
                                             syndrome_trace=[False] * (it - 1) + [bool(ok[i])])
                                  for e, a in zip(e_hat, app)]
        if done.all():
            return results
        active, v2c = active[~done], [msg[~done] for msg in v2c]
        s_active = [s[active] for s in S]


def _sogrand_side(graph: TannerGraph, s, sog_params: SograndParams) -> Side:
    """SOGRAND at every check node of ``graph`` and active trial as one block:
    row a*m + j is check j's local view in the a-th active trial."""
    comp = graph.component

    def rule(v2c, s_active):
        return decode_block(comp, v2c.reshape(-1, comp.n_c), s_active.reshape(-1, comp.m_c),
                            sog_params).L_E.reshape(v2c.shape)

    return Side(edge_var=graph.edge_var, check=graph.syndrome, s=s, rule=rule)


def decode_side(graph: TannerGraph, L_ch, s, n_iter: int = 20,
                sog_params: SograndParams = SograndParams()) -> SideResult:
    """Decode one binary error component on one Tanner graph: a one-trial view."""
    return flood([_sogrand_side(graph, np.asarray(s)[None], sog_params)], [L_ch], n_iter)[0][0]


def decode_independent_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                              n_iter: int = 20, sog_params: SograndParams = SograndParams()
                              ) -> list[DecodeResult]:
    """Decode Z errors on the X graph and X errors on the Z graph of T trials apart."""
    z_sides = flood([_sogrand_side(code.x_graph, s_z, sog_params)], [priors.llr_z], n_iter)
    x_sides = flood([_sogrand_side(code.z_graph, s_x, sog_params)], [priors.llr_x], n_iter)
    return [DecodeResult(z_side=z, x_side=x)
            for (z,), (x,) in zip(z_sides, x_sides, strict=True)]


def decode_independent(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                       n_iter: int = 20,
                       sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """One-trial view of ``decode_independent_trials``."""
    return decode_independent_trials(code, priors, np.asarray(s_x)[None],
                                     np.asarray(s_z)[None], n_iter, sog_params)[0]


def _beliefs_from_llr(L: np.ndarray, about_x: bool) -> np.ndarray:
    """Map a binary LLR message into four-valued Pauli beliefs.

    A message about the X-error component (from an H_Z-graph check) says
    nothing about Z errors: P(X) = P(Y) = q/2, P(I) = P(Z) = (1-q)/2, with
    q = 1/(1+exp(L)).  Mirrored for messages about the Z component.
    """
    q = np.exp(-np.logaddexp(0.0, L))
    out = np.empty(L.shape + (4,))
    if about_x:
        out[..., _X] = out[..., _Y] = 0.5 * q
        out[..., _I] = out[..., _Z] = 0.5 * (1.0 - q)
    else:
        out[..., _Z] = out[..., _Y] = 0.5 * q
        out[..., _I] = out[..., _X] = 0.5 * (1.0 - q)
    return out


def _marginal_llr(P: np.ndarray, about_x: bool) -> np.ndarray:
    if about_x:
        num = P[..., _I] + P[..., _Z]
        den = P[..., _X] + P[..., _Y]
    else:
        num = P[..., _I] + P[..., _X]
        den = P[..., _Z] + P[..., _Y]
    return clamp_llr(np.log(np.maximum(num, BELIEF_FLOOR))
                     - np.log(np.maximum(den, BELIEF_FLOOR)))


def _argmax_pauli(P_app: np.ndarray) -> np.ndarray:
    """Per-qubit argmax over the last axis, with tie order I, X, Z, Y."""
    return _TIE_ORDER[np.argmax(P_app[..., _TIE_ORDER], axis=-1)]


def _pauli_fuse(prior: np.ndarray, xg: TannerGraph, zg: TannerGraph, c2v):
    """Pauli-belief fusion of (X graph, Z graph) messages, about (e_z, e_x),
    of A trials: the messages are (A, E), the beliefs (A, n, [2,] 4).

    The hard decision is the most likely Pauli, not the marginals' signs."""
    c2v_x, c2v_z = c2v
    in_x = c2v_x[:, xg.vn_edge]                     # (A, n, 2) LLRs about e_z
    in_z = c2v_z[:, zg.vn_edge]                     # (A, n, 2) LLRs about e_x
    bel_x = _beliefs_from_llr(in_x, about_x=False)  # (A, n, 2, 4)
    bel_z = _beliefs_from_llr(in_z, about_x=True)

    P_app = prior * bel_x.prod(axis=-2) * bel_z.prod(axis=-2)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=-1, keepdims=True)

    symbol = _argmax_pauli(P_app)
    e_x = ((symbol == _X) | (symbol == _Y)).astype(np.uint8)
    e_z = ((symbol == _Z) | (symbol == _Y)).astype(np.uint8)
    app = [_marginal_llr(P_app, about_x=False), _marginal_llr(P_app, about_x=True)]

    # Extrinsic: divide out the incoming belief, marginalize per graph.
    ext_x = P_app[..., None, :] / np.maximum(bel_x, BELIEF_FLOOR)
    ext_z = P_app[..., None, :] / np.maximum(bel_z, BELIEF_FLOOR)
    v2c_x, v2c_z = np.empty_like(c2v_x), np.empty_like(c2v_z)
    v2c_x[:, xg.vn_edge] = _marginal_llr(ext_x, about_x=False)
    v2c_z[:, zg.vn_edge] = _marginal_llr(ext_z, about_x=True)
    return app, [v2c_x, v2c_z], [e_z, e_x]


def decode_correlated_trials(code: GldpcCode, pauli_prior, s_x, s_z, n_iter: int = 20,
                             sog_params: SograndParams = SograndParams()
                             ) -> list[DecodeResult]:
    """Joint X/Z decoding of T trials, with Pauli-belief fusion at the variables.

    Check nodes on both graphs still run binary SOGRAND; variable nodes map
    the four incoming binary LLRs into Pauli beliefs, fuse them with the
    channel prior, and marginalize the extrinsic beliefs back into binary
    LLRs for each graph.  A trial stops when both syndrome equations hold.
    """
    prior = np.asarray(pauli_prior, dtype=float)
    if prior.shape != (code.n, 4):
        raise ValueError(f"Pauli prior has shape {prior.shape}, expected {(code.n, 4)}")
    xg, zg = code.x_graph, code.z_graph
    sides = [_sogrand_side(xg, s_z, sog_params), _sogrand_side(zg, s_x, sog_params)]
    # Channel marginals initialize both graphs' messages.
    L0 = [_marginal_llr(prior, about_x=False), _marginal_llr(prior, about_x=True)]
    return [DecodeResult(z_side=z, x_side=x) for z, x in
            flood(sides, L0, n_iter, fuse=lambda c2v: _pauli_fuse(prior, xg, zg, c2v))]


def decode_correlated(code: GldpcCode, pauli_prior, s_x, s_z, n_iter: int = 20,
                      sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """One-trial view of ``decode_correlated_trials``."""
    return decode_correlated_trials(code, pauli_prior, np.asarray(s_x)[None],
                                    np.asarray(s_z)[None], n_iter, sog_params)[0]
