"""Iterative GLDPC decoding: one flooding driver for every decoder.

Messages live on edges, in check-major order, behind a trial axis: ``flood``
decodes the T trials of one ``Side`` in lock-step, each distinct syndrome once.
Each iteration the side's check rule (SOGRAND from ``sogrand_side``, all checks
and active rows in one block, or min-sum from ``minsum.minsum_side``) maps the
messages to extrinsic ones, a fusion combines them with the channel prior at the
variables (binary, or Pauli beliefs on a correlated decode's paired side), and a
syndrome test (``gf2.stacked_syndrome``, a gather at H's support) lets each trial
leave once it meets its syndrome.  Equal rules (SOGRAND's value (component, params),
min-sum's per check-degree layout) take one call per iteration for both graphs'
checks: on a paired side, or on an independent decode's two sides of one shape,
stacked in one block with one fusion and one syndrome test.  ``_lockstep`` alone
decides what stacks, and runs problems that cannot stack apart.  Each step is
row-wise: trial order and grouping change nothing; equal syndromes have equal results.
So the first iteration's SOGRAND call, whose rows all hold one message row when the
prior is the same at every variable, is a lookup by local syndrome in a table that
the kernel fills once per syndrome met.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
# about (e_z on the X graph, e_x on the Z graph) and the one that leaves it.  A
# message's keep belief goes to its keep pair (I, other) and its flip belief to its
# flip pair (bit, Y): those columns as [keep/flip, 2, graph], and per graph a 1 on
# each column its messages flip.
_PAIRS = ((_Z, _X), (_X, _Z))
_KEEP_FLIP = np.array([[(_I, other), (bit, _Y)] for bit, other in _PAIRS]).transpose(1, 2, 0)
_FLIPS = np.array([[c in (bit, _Y) for c in range(4)] for bit, _ in _PAIRS], np.uint8)


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
    stack other sides' rows with these: both need a row-wise rule and fusion.
    """
    return _lockstep([(side, L0, fuse)], n_iter)[0]


def _lockstep(problems, n_iter: int) -> list[SideResult]:
    """The loop behind ``flood``, for (side, L0, fuse) problems.  They stack when their rules
    compare equal, their (m, n, E) match and none carries a fuse: their active rows sit in one
    block, each side's contiguous, and each iteration makes one rule call, one fusion and one
    syndrome test for them all.  Any other set runs apart, one block per problem."""
    check_count("n_iter", n_iter, 1)
    sides, fuse, ops = [p[0] for p in problems], problems[0][2], [p[0].check for p in problems]
    shapes = {side.check.H.shape + side.edge_var.shape for side in sides}
    if len(problems) > 1 and (len(shapes) > 1 or any(p[2] is not None for p in problems)
                              or any(side.rule != sides[0].rule for side in sides)):
        return [_lockstep([problem], n_iter)[0] for problem in problems]
    L0, S, twins = zip(*(_distinct(side, L0) for side, L0, _ in problems))
    counts, edge_var = [len(s) for s in S], np.stack([side.edge_var for side in sides])
    sid, S, L0 = np.repeat(np.arange(len(sides)), counts), np.concatenate(S), np.stack(L0)
    rows, v2c, it, fused = np.arange(len(sid)), L0[sid[:, None], edge_var[sid]], 0, None
    out = np.zeros_like(L0[sid], np.uint8), L0[sid], np.zeros_like(rows, bool), np.zeros_like(rows)
    while rows.size:  # at n_iter every row leaves
        if fused is None:  # the indices of the rows still running, rebuilt as rows leave
            fused, test = fuse or _binary_fuse(L0, edge_var, sid), gf2.stacked_syndrome(ops, sid)
        it += 1
        app, v2c, e_hat = fused(sides[0].rule(v2c, S))
        ok = (test(e_hat) == S).all(axis=1)
        if it == n_iter or ok.any():
            done = ok | (it == n_iter)
            for field, value in zip(out, (e_hat[done], app[done], ok[done], it)):
                field[rows[done]] = value
            rows, sid, S, v2c, fused = rows[~done], sid[~done], S[~done], v2c[~done], None
    ends = np.cumsum(counts)
    return [SideResult(*(a[e - c:e][twin] for a in out)) for c, e, twin in zip(counts, ends, twins)]


def _distinct(side: Side, L0):
    """(L0, the side's distinct syndromes, twin) if the shapes fit: trial t is row twin[t]."""
    L0, S = as_llr("channel LLRs", L0), gf2.as_bits("syndromes", side.s)
    m, n = side.check.H.shape
    if S.shape != S.shape[:1] + (m,) or L0.shape != (n,):  # a 0-d S fails here too
        raise ValueError(f"syndromes of shape {S.shape} and LLRs of shape "
                         f"{L0.shape} do not fit (T, {m}) and a {m}x{n} check matrix")
    # twins get copies (``_tail`` writes OSD estimates into them), and with no twins
    # the results pass as they are
    _, first, twin = _row_keys(S)
    return (L0, S[first], twin) if len(first) < len(S) else (L0, S, slice(None))


def _row_keys(bits):
    """``np.unique`` of the rows of a (R, w) bit block, each packed into one bytes key:
    (sorted keys, each key's first row, each row's key index)."""
    keys = np.zeros((len(bits), bits.shape[1] // 8 + 1), np.uint8)  # a spare byte: w = 0 keys too
    keys[:, :(bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1)
    return np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True)


def _binary_fuse(L0: np.ndarray, edge_var: np.ndarray, sid: np.ndarray):
    """Binary fusion of stacked rows, row a of side sid[a] of (k, n) ``L0`` and (k, E)
    ``edge_var``: APP LLRs are L0 plus the c2v messages; each edge's v2c leaves its own out."""
    # flattened, an edge of row a points at variable a*n + v: bincount then adds
    # each bin's weights in edge order, as for one row alone
    var, L0 = (edge_var[sid] + L0.shape[1] * np.arange(len(sid))[:, None]).ravel(), L0[sid]

    def fuse(c2v):
        app = L0 + np.bincount(var, c2v.ravel(), L0.size).reshape(L0.shape)
        v2c = app.ravel()[var] - c2v.ravel()  # clamped in place: no E-sized temporaries
        np.minimum(np.maximum(v2c, -LLR_CLAMP, out=v2c), LLR_CLAMP, out=v2c)
        return app, v2c.reshape(c2v.shape), (app < 0).view(np.uint8)  # L_APP >= 0 -> 0; a view
    return fuse


def _paired(x: Side, z: Side) -> Side:
    """The X graph's side (e_z, variables 0..n-1) and the Z graph's (e_x, n..2n-1) as
    one side: block-diagonal checks, built once per pair of graphs, syndromes [s_z | s_x]."""
    S = [gf2.as_bits("syndromes", sd.s) for sd in (x, z)]
    (mx, n), (mz, _), T = x.check.H.shape, z.check.H.shape, S[0].shape[:1]
    if S[0].shape != T + (mx,) or S[1].shape != T + (mz,):
        raise ValueError(f"syndromes of shapes {S[0].shape} and {S[1].shape} do not "
                         f"fit (T, {mx}) and (T, {mz}) for the X and Z graphs")

    def split(v2c, s_active):  # each graph's rule on its own edges and checks
        return np.concatenate([x.rule(v2c[:, :x.edge_var.size], s_active[:, :mx]),
                               z.rule(v2c[:, x.edge_var.size:], s_active[:, mx:])], axis=1)
    return Side(edge_var=np.concatenate([x.edge_var, z.edge_var + n]),
                check=gf2.block_diagonal(x.check, z.check), s=np.concatenate(S, axis=1),
                rule=x.rule if x.rule == z.rule else split)


@dataclass(frozen=True)
class SograndRule:
    """SOGRAND at every check, as a value: row a*m + j is check j in active trial a.

    A block whose rows all hold one bit pattern (the first iteration's, when the
    prior is the same at every variable) is a lookup: its L_E rows are gathered by
    local syndrome from ``_prior_table``, which the kernel fills with the syndromes
    it lacks.  That is exact because the kernel is row-wise: a row's output depends
    only on its messages and its local syndrome, not on the block it sits in."""

    component: ComponentCode
    params: SograndParams

    def __call__(self, v2c, s_active):  # no input checks: ``flood`` has made decode_block's
        comp, L_A = self.component, v2c.reshape(-1, self.component.n_c)
        # the row count from the messages: with no component checks, s_active has no entries
        s_local, bits = s_active.reshape(len(L_A), comp.m_c), L_A.view(np.int64)
        # rows compare by bit pattern (-0.0 is not 0.0); one row alone gains nothing
        if len(L_A) > 1 and (bits == bits[0]).all():
            return _lookup(self, L_A, s_local).reshape(v2c.shape)
        return block_kernel(comp, L_A, s_local, self.params).L_E.reshape(v2c.shape)


@lru_cache(maxsize=32)
def _prior_table(rule: SograndRule, row: bytes) -> dict:
    """``rule``'s L_E rows on messages whose bytes are ``row``, keyed by packed local
    syndrome: one read-only n_c row per syndrome met, filled by ``_lookup``."""
    return {}


def _lookup(rule: SograndRule, L_A, s_local):
    """The kernel's L_E on a block whose rows all equal L_A[0], from its table: the
    syndromes the table lacks are decoded first, in one call of as many rows."""
    table, (keys, first, inverse) = _prior_table(rule, L_A[0].tobytes()), _row_keys(s_local)
    keys = keys.tolist()
    new = [i for i, key in enumerate(keys) if key not in table]
    if new:
        L_E = block_kernel(rule.component, L_A[:len(new)], s_local[first[new]], rule.params).L_E
        L_E.setflags(write=False)
        table.update(zip([keys[i] for i in new], L_E))
    return np.stack([table[key] for key in keys])[inverse]


def sogrand_side(graph: TannerGraph, s, sog_params: SograndParams) -> Side:
    """SOGRAND at every check node of ``graph``."""
    return Side(edge_var=graph.edge_var, check=graph.syndrome, s=s,
                rule=SograndRule(graph.component, sog_params))


def decode_independent_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                              n_iter: int, side: Callable[..., Side]) -> DecodeResult:
    """Decode e_z on the X graph and e_x on the Z graph apart, by the rules ``side(graph, s)``:
    in lock-step, if ``_lockstep`` stacks them."""
    problems = [(side(code.x_graph, s_z), priors.llr_z, None),
                (side(code.z_graph, s_x), priors.llr_x, None)]
    return DecodeResult(*_lockstep(problems, n_iter))


def decode_independent(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                       n_iter: int = 20,
                       sog_params: SograndParams = SograndParams()) -> DecodeResult:
    """One-trial SOGRAND view of ``decode_independent_trials``; only tests and bench/ use it."""
    return decode_independent_trials(code, priors, np.asarray(s_x)[None], np.asarray(s_z)[None],
                                     n_iter, lambda g, s: sogrand_side(g, s, sog_params)).row(0)


def _keep_flip(P: np.ndarray) -> np.ndarray:
    """(..., n, 4) Pauli beliefs as (2, 2, ..., 2n): the keep pair and the flip pair of
    each graph's variables, e_z's then e_x's."""
    pairs = np.moveaxis(P, -1, 0)[_KEEP_FLIP]  # (keep/flip, 2, graph, ..., n)
    return np.moveaxis(pairs, 2, -2).reshape(2, 2, *P.shape[:-2], -1)


def _llr(num, den):
    """Binary LLRs of keep-pair belief sums over flip-pair sums, each floored, clamped."""
    return clamp_llr(np.log(np.maximum(num, BELIEF_FLOOR)) - np.log(np.maximum(den, BELIEF_FLOOR)))


def _argmax_pauli(P_app: np.ndarray) -> np.ndarray:
    """Per-qubit argmax over the last axis, with tie order I, X, Z, Y."""
    return _TIE_ORDER[np.argmax(P_app[..., _TIE_ORDER], axis=-1)]


def _pauli_fuse(prior: np.ndarray, edges, c2v):
    """Pauli-belief fusion of a paired side's (A, E) messages of A trials, gathered
    by its (2n, 2) ``vn_edges``: e_z's variables, then e_x's.  A message of LLR L
    holds two beliefs, keep (1-q)/2 and flip q/2 with q = 1/(1+exp(L)), each held by
    two Paulis.  Returns (A, 2n) APP LLRs and hard decisions and (A, E) v2c messages.

    The hard decision is the most likely Pauli, not the marginals' signs."""
    q = np.exp(-np.logaddexp(0.0, c2v[:, edges]))
    keep, flip = 0.5 * (1.0 - q), 0.5 * q  # (A, 2n, 2): each message's two beliefs
    # each variable's two-edge products, per graph, spread to (I, X, Y, Z) columns
    prod = np.stack([keep[..., 0] * keep[..., 1], flip[..., 0] * flip[..., 1]], axis=-1)
    x, z = prod.reshape(len(c2v), 2, len(prior), 2).swapaxes(0, 1)
    P_app = prior * x[..., _FLIPS[0]] * z[..., _FLIPS[1]]
    P_app /= P_app.sum(axis=-1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    (i, o), (b, y) = _keep_flip(P_app)  # I and other; bit and Y
    k, f = np.maximum(keep, BELIEF_FLOOR), np.maximum(flip, BELIEF_FLOOR)
    v2c = np.empty_like(c2v)  # extrinsic: each edge's own beliefs divided out
    v2c[:, edges] = _llr(i[..., None] / k + o[..., None] / k, b[..., None] / f + y[..., None] / f)
    return _llr(i + o, b + y), v2c, np.concatenate(_FLIPS[:, _argmax_pauli(P_app)], axis=1)


def decode_correlated_trials(code: GldpcCode, priors: ChannelPrior, s_x, s_z,
                             n_iter: int, side: Callable[..., Side]) -> DecodeResult:
    """Joint X/Z decoding of T trials as one paired side (``_paired``), with
    Pauli-belief fusion at the variables: the checks of both graphs run a binary
    rule; each variable fuses its four messages' keep and flip beliefs with the
    channel's Pauli prior, and takes the APP and extrinsic beliefs back to binary
    LLRs per graph (``_llr``), which must give every variable exactly two edges.
    A trial stops when both syndrome equations hold."""
    prior = np.asarray(priors.pauli_prior, dtype=float)
    if prior.shape != (code.n, 4):
        raise ValueError(f"Pauli prior has shape {prior.shape}, expected {(code.n, 4)}")
    paired = _paired(side(code.x_graph, s_z), side(code.z_graph, s_x))
    edges = vn_edges(paired.edge_var, 2 * code.n)
    (i, o), (b, y) = _keep_flip(prior)
    L0 = _llr(i + o, b + y)  # first messages
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
