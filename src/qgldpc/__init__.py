"""SOGRAND-based GLDPC decoding and simulation for CSS quantum Tanner codes."""

from .channel import DepolarizingParams, PauliErrorPattern, make_priors, sample_error, syndromes
from .codes import ComponentCode, GldpcCode, TannerGraph, builtin_code, load_code, write_code
from .harness import ExperimentConfig, pseudothreshold, run_sweep, run_trials
from .minsum import BpConfig, minsum_decode
from .osd import OsdConfig, osd_postprocess
from .sogrand import SograndParams, sogrand_decode

__all__ = [
    "BpConfig", "ComponentCode", "DepolarizingParams", "ExperimentConfig",
    "GldpcCode", "OsdConfig", "PauliErrorPattern", "SograndParams", "TannerGraph",
    "builtin_code", "load_code", "make_priors", "minsum_decode", "osd_postprocess",
    "pseudothreshold", "run_sweep", "run_trials", "sample_error", "sogrand_decode",
    "syndromes", "write_code",
]
