"""Iterative GLDPC decoding: one flooding driver for every decoder.

Messages live on edges, in check-major order.  Each iteration a check rule
maps every variable-to-check message to an extrinsic check-to-variable
one (SOGRAND on the whole component code here, all checks of a side in one
block; scaled min-sum, its single parity-check case, in ``minsum``), a
variable-node fusion combines them with the channel prior (binary per side,
or four-valued Pauli beliefs across both graphs), and decoding stops as
soon as the hard decision reproduces the syndrome.
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
    """One binary syndrome-decoding problem for the flooding driver."""

    edge_var: np.ndarray   # (E,) variable node of each edge, check-major order
    check: gf2.Syndrome    # e -> H e
    s: np.ndarray          # target syndrome
    rule: Callable[[np.ndarray], np.ndarray]  # check rule: (E,) v2c -> (E,) c2v


def flood(sides: list[Side], L0: list[np.ndarray], n_iter: int,
          fuse=None) -> list[SideResult]:
    """Run the flooding schedule until every side meets its syndrome.

    ``L0`` holds each side's channel LLRs, which are the first messages.
    ``fuse`` maps the sides' c2v messages to per-side APP LLRs, v2c
    messages and hard decisions; None fuses each side alone (binary).
    Returns one ``SideResult`` per side, with the joint convergence flag.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    L0 = [np.asarray(L, dtype=float) for L in L0]
    for side, L in zip(sides, L0):
        m, n = side.check.H.shape
        if side.s.shape != (m,) or L.shape != (n,):
            raise ValueError(f"syndrome of shape {side.s.shape} and LLRs of shape "
                             f"{L.shape} do not fit a {m}x{n} check matrix")

    v2c = [L[side.edge_var] for side, L in zip(sides, L0)]
    trace: list[bool] = []
    for it in range(1, n_iter + 1):
        c2v = [side.rule(msg) for side, msg in zip(sides, v2c)]
        if fuse is None:
            app = [L + np.bincount(side.edge_var, weights=c, minlength=L.shape[0])
                   for side, L, c in zip(sides, L0, c2v)]
            v2c = [clamp_llr(a[side.edge_var] - c) for side, a, c in zip(sides, app, c2v)]
            e_hat = [(a < 0).astype(np.uint8) for a in app]  # L_APP >= 0 -> 0
        else:
            app, v2c, e_hat = fuse(c2v)
        ok = all(np.array_equal(side.check(e), side.s) for side, e in zip(sides, e_hat))
        trace.append(ok)
        if ok:
            break
    return [SideResult(e_hat=e, converged=ok, iterations_used=it, app=a,
                       syndrome_trace=list(trace)) for e, a in zip(e_hat, app)]


def _sogrand_side(graph: TannerGraph, s, sog_params: SograndParams) -> Side:
    """SOGRAND at every check node of ``graph`` as one block: row j of the
    (m, n_c) messages and of the (m, m_c) syndrome is check j's local view."""
    s = np.asarray(s, dtype=np.uint8) % 2
    comp = graph.component

    def rule(v2c):
        return decode_block(comp, v2c.reshape(graph.m, comp.n_c),
                            s.reshape(graph.m, comp.m_c), sog_params).L_E.reshape(-1)

    return Side(edge_var=graph.edge_var, check=graph.syndrome, s=s, rule=rule)


def decode_side(graph: TannerGraph, L_ch, s, n_iter: int = 20,
                sog_params: SograndParams = SograndParams()) -> SideResult:
    """Decode one binary error component on one Tanner graph."""
    return flood([_sogrand_side(graph, s, sog_params)], [L_ch], n_iter)[0]


def decode_independent(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                       n_iter: int = 20,
                       sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """Decode Z errors on the X graph and X errors on the Z graph, independently."""
    z_side = decode_side(code.x_graph, priors.llr_z, s_z, n_iter, sog_params)
    x_side = decode_side(code.z_graph, priors.llr_x, s_x, n_iter, sog_params)
    return DecodeResult(z_side=z_side, x_side=x_side)


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
    """Per-qubit argmax with tie order I, X, Z, Y."""
    reordered = P_app[:, _TIE_ORDER]
    return _TIE_ORDER[np.argmax(reordered, axis=1)]


def _pauli_fuse(prior: np.ndarray, xg: TannerGraph, zg: TannerGraph, c2v):
    """Pauli-belief fusion of (X graph, Z graph) messages, about (e_z, e_x).

    The hard decision is the most likely Pauli, not the marginals' signs."""
    c2v_x, c2v_z = c2v
    in_x = c2v_x[xg.vn_edge]                        # (n, 2) LLRs about e_z
    in_z = c2v_z[zg.vn_edge]                        # (n, 2) LLRs about e_x
    bel_x = _beliefs_from_llr(in_x, about_x=False)  # (n, 2, 4)
    bel_z = _beliefs_from_llr(in_z, about_x=True)

    P_app = prior * bel_x.prod(axis=1) * bel_z.prod(axis=1)
    P_app /= P_app.sum(axis=1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=1, keepdims=True)

    symbol = _argmax_pauli(P_app)
    e_x = ((symbol == _X) | (symbol == _Y)).astype(np.uint8)
    e_z = ((symbol == _Z) | (symbol == _Y)).astype(np.uint8)
    app = [_marginal_llr(P_app, about_x=False), _marginal_llr(P_app, about_x=True)]

    # Extrinsic: divide out the incoming belief, marginalize per graph.
    ext_x = P_app[:, None, :] / np.maximum(bel_x, BELIEF_FLOOR)
    ext_z = P_app[:, None, :] / np.maximum(bel_z, BELIEF_FLOOR)
    v2c_x, v2c_z = np.empty_like(c2v_x), np.empty_like(c2v_z)
    v2c_x[xg.vn_edge] = _marginal_llr(ext_x, about_x=False)
    v2c_z[zg.vn_edge] = _marginal_llr(ext_z, about_x=True)
    return app, [v2c_x, v2c_z], [e_z, e_x]


def decode_correlated(code: GldpcCode, pauli_prior, s_x, s_z, n_iter: int = 20,
                      sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """Joint X/Z decoding with Pauli-belief fusion at the variable nodes.

    Check nodes on both graphs still run binary SOGRAND; variable nodes map
    the four incoming binary LLRs into Pauli beliefs, fuse them with the
    channel prior, and marginalize the extrinsic beliefs back into binary
    LLRs for each graph.  Terminates when both syndrome equations hold.
    """
    prior = np.asarray(pauli_prior, dtype=float)
    if prior.shape != (code.n, 4):
        raise ValueError(f"Pauli prior has shape {prior.shape}, expected {(code.n, 4)}")
    xg, zg = code.x_graph, code.z_graph
    sides = [_sogrand_side(xg, s_z, sog_params), _sogrand_side(zg, s_x, sog_params)]
    # Channel marginals initialize both graphs' messages.
    L0 = [_marginal_llr(prior, about_x=False), _marginal_llr(prior, about_x=True)]
    z_side, x_side = flood(sides, L0, n_iter,
                           fuse=lambda c2v: _pauli_fuse(prior, xg, zg, c2v))
    return DecodeResult(z_side=z_side, x_side=x_side)
