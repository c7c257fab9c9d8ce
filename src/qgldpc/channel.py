"""Depolarizing channel: sampling, syndromes, priors, and ``as_llr``, the one LLR check.

Trials draw from Philox under SeedSequence's key of (seed, p, t): numpy hashes the
point's words once, and a chunk's trial words are mixed in as arrays, all at once."""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .codes import GldpcCode
from .gf2 import as_bits

#: hard bound on every LLR exchanged anywhere in the decoder stack
LLR_CLAMP = 30.0


def clamp_llr(L):
    # np.clip's result, without its wrappers' per-call cost on small arrays
    return np.minimum(np.maximum(L, -LLR_CLAMP), LLR_CLAMP)


def check_count(name: str, value, low: int) -> None:
    """A count of a config: a Python or numpy integer, not a bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def as_llr(name: str, L) -> np.ndarray:
    """``L`` as a float64 array, if no entry is NaN.  +-inf stay and nothing is
    clamped: APP LLRs beyond LLR_CLAMP keep OSD's reliability order untied."""
    L = np.asarray(L, dtype=np.float64)
    if np.isnan(L).any():
        raise ValueError(f"{name} of shape {L.shape} must not hold NaN")
    return L


def check_decoding_p(p: float) -> None:
    """The decoders take 0 < p <= 3/4, where the channel LLR is finite and >= 0."""
    if not 0.0 < p <= 0.75:
        raise ValueError(f"p must lie in (0, 3/4] to decode, got {p}")


@dataclass(frozen=True)
class DepolarizingParams:
    p: float  # total physical error rate; each of X/Y/Z occurs w.p. p/3

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {self.p}")

    @property
    def p_eff(self) -> float:
        """Marginal flip probability of either binary component: 2p/3."""
        return 2.0 * self.p / 3.0


@dataclass(frozen=True)
class PauliErrorPattern:
    e_x: np.ndarray
    e_z: np.ndarray

    def __post_init__(self):
        if np.shape(self.e_x) != np.shape(self.e_z):
            raise ValueError("e_x and e_z must have equal shapes")


@dataclass(frozen=True)
class ChannelPrior:
    llr_x: np.ndarray        # prior LLRs for the X-error components
    llr_z: np.ndarray        # prior LLRs for the Z-error components
    pauli_prior: np.ndarray  # (n, 4) rows over (I, X, Y, Z)


def trial_rng(master_seed: int, p: float, trial_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, error rate, trial).

    Philox under the trial's key from ``_philox_keys``, so every trial draws an
    independent, platform-stable stream regardless of execution order.
    """
    (low, high), = _philox_keys(master_seed, p, [trial_index])
    # one 128-bit int: numpy reads a list of two ints through float64 once a word is >= 2^63
    return np.random.Generator(np.random.Philox(key=low | high << 64))


def _words(name: str, value, pad: int = 1) -> list[int]:
    """An integer's uint32 words, low first, as SeedSequence splits it, zero-padded to ``pad``."""
    if (value := int(value)) < 0:  # numpy's error: a negative has no uint32 words
        raise ValueError(f"{name}: expected non-negative integer, got {value}")
    words = [value >> i & 0xFFFFFFFF for i in range(0, max(value.bit_length(), 1), 32)]
    return words + [0] * (pad - len(words))


# numpy's SeedSequence constants: the entropy hash's, the state draw's, and the mix's
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants at steps ``step`` to ``step + 4``: the 4 a hashmix xors
    in, and the 4 it multiplies by, as (4, 1) uint32 columns."""
    c = np.array([init * pow(mult, step + i, 2**32) % 2**32 for i in range(5)], np.uint32)
    c.flags.writeable = False  # every caller shares them
    return c[:-1, None], c[1:, None]


def _hash(v, init: int, mult: int, step: int) -> np.ndarray:
    """SeedSequence's hashmix of ``v`` at steps ``step`` to ``step + 3``, one per row."""
    xor, mul = _hash_consts(init, mult, step)
    v = (v ^ xor) * mul
    return v ^ v >> _SHIFT


def _philox_keys(master_seed: int, p: float, trials) -> list[tuple[int, int]]:
    """Each trial's Philox key, (low, high) 64-bit words: the key of
    ``SeedSequence(entropy=master_seed, spawn_key=(p's bits, t))``, which hashes the seed's
    words padded to its pool size, 4, then p's and t's.  numpy hashes the point's words
    once; all trials' words are mixed into that pool, and drawn from, as (4, T) rows."""
    head = _words("master_seed", master_seed, pad=4) + _words("p", np.float64(p).view(np.uint64))
    pool = np.random.SeedSequence(np.array(head, np.uint32)).pool[:, None]
    rest = [int(t) for t in trials]  # each index's words not yet mixed in
    _words("trial index", min(rest, default=0))  # numpy's error on a negative index
    for k in range(len(_words("trial index", max(rest, default=0)))):
        # 4 + 12 hash steps fill and mix the pool, then 4 per word: head's past 4, t's below k
        word = np.array([t & 0xFFFFFFFF for t in rest], np.uint32)
        mixed = _MIX_L * pool - _MIX_R * _hash(word, _INIT_A, _MULT_A, 4 * (len(head) + k))
        mixed ^= mixed >> _SHIFT
        # a word past the first is mixed in only where the index has it
        pool = np.where([t > 0 for t in rest], mixed, pool) if k else mixed
        rest = [t >> 32 for t in rest]
    state = _hash(pool, _INIT_B, _MULT_B, 0).astype(np.uint64)
    return list(zip(*(state[0::2] | state[1::2] << np.uint64(32)).tolist()))


def _pauli(params: DepolarizingParams, u: np.ndarray) -> PauliErrorPattern:
    """Uniform draws ``u`` as Paulis: I if u >= p, else X, Y or Z by thirds of p."""
    third = params.p / 3.0
    e_x = (u < 2 * third).astype(np.uint8)            # X or Y
    e_z = ((u >= third) & (u < params.p)).astype(np.uint8)  # Y or Z
    return PauliErrorPattern(e_x=e_x, e_z=e_z)


def sample_error(params: DepolarizingParams, n: int,
                 rng: np.random.Generator) -> PauliErrorPattern:
    """Each qubit independently I w.p. 1-p, else X/Y/Z each w.p. p/3."""
    return _pauli(params, rng.random(n))


_THREAD = threading.local()


def _sampler() -> tuple[np.random.Philox, np.random.Generator, dict]:
    """This thread's Philox and Generator, made at its first call, and a state that
    restarts a trial's stream once set under its key."""
    if not hasattr(_THREAD, "sampler"):
        philox = np.random.Philox(0)
        state = philox.state
        # counter 0 and an empty buffer, as lists: the setter reads them 2x faster than arrays
        state["state"]["counter"], state["buffer"] = [0] * 4, [0] * 4
        _THREAD.sampler = philox, np.random.Generator(philox), state
    return _THREAD.sampler


def sample_errors(params: DepolarizingParams, n: int, master_seed: int,
                  trials: range) -> PauliErrorPattern:
    """(T, n) errors, row t bit for bit ``sample_error(params, n, trial_rng(
    master_seed, params.p, t))``.  Philox is counter-based, so this thread's one
    Philox, re-keyed per trial under one Generator, draws each trial's stream; one
    ``_philox_keys`` call gives the chunk's keys."""
    philox, gen, state = _sampler()
    u = np.empty((len(trials), n))
    for row, key in zip(u, _philox_keys(master_seed, params.p, trials)):
        state["state"]["key"] = key
        philox.state = state
        gen.random(out=row)
    return _pauli(params, u)


def make_priors(params: DepolarizingParams, n: int) -> ChannelPrior:
    """Channel LLRs log((1-p~)/p~) with p~ = 2p/3, and per-qubit Pauli priors."""
    p = params.p
    check_decoding_p(p)
    p_eff = params.p_eff
    llr = clamp_llr(np.full(n, np.log((1.0 - p_eff) / p_eff)))
    pauli = np.tile([1.0 - p, p / 3.0, p / 3.0, p / 3.0], (n, 1))
    return ChannelPrior(llr_x=llr.copy(), llr_z=llr.copy(), pauli_prior=pauli)


def syndromes(code: GldpcCode, e: PauliErrorPattern) -> tuple[np.ndarray, np.ndarray]:
    """s_x = H_Z e_x and s_z = H_X e_z (error-free measurement), of one (n,)
    pattern or row by row of a (T, n) block."""
    return (code.z_graph.syndrome(as_bits("e_x", e.e_x)),
            code.x_graph.syndrome(as_bits("e_z", e.e_z)))
