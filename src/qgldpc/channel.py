"""Depolarizing channel: error sampling, syndromes and decoder priors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import GldpcCode

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


def as_bits(name: str, v) -> np.ndarray:
    """``v`` as a uint8 array, if every entry is 0 or 1 (any integer, float or bool dtype)."""
    v = np.asarray(v)
    if not ((v == 0) | (v == 1)).all():
        raise ValueError(f"{name} of shape {v.shape} must hold only 0s and 1s")
    return v.astype(np.uint8)


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
        if self.e_x.shape != self.e_z.shape:
            raise ValueError("e_x and e_z must have equal shapes")


@dataclass(frozen=True)
class ChannelPrior:
    llr_x: np.ndarray        # prior LLRs for the X-error components
    llr_z: np.ndarray        # prior LLRs for the Z-error components
    pauli_prior: np.ndarray  # (n, 4) rows over (I, X, Y, Z)


def trial_rng(master_seed: int, p: float, trial_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, error rate, trial).

    Philox keyed through a SeedSequence spawn key, so every trial draws an
    independent, platform-stable stream regardless of execution order.
    """
    p_key = int(np.float64(p).view(np.uint64))
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(p_key, int(trial_index)))
    return np.random.Generator(np.random.Philox(ss))


def sample_error(params: DepolarizingParams, n: int,
                 rng: np.random.Generator) -> PauliErrorPattern:
    """Each qubit independently I w.p. 1-p, else X/Y/Z each w.p. p/3."""
    u = rng.random(n)
    third = params.p / 3.0
    e_x = (u < 2 * third).astype(np.uint8)            # X or Y
    e_z = ((u >= third) & (u < params.p)).astype(np.uint8)  # Y or Z
    return PauliErrorPattern(e_x=e_x, e_z=e_z)


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
    return code.z_graph.syndrome(e.e_x), code.x_graph.syndrome(e.e_z)
