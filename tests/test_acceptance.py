"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; a failed assert
leaves the line unprinted.  The heavier Monte Carlo comparisons share one
set of paired trials (common random numbers) through module-scoped caches.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from qgldpc import channel, gf2
from qgldpc.codes import ComponentCode, builtin_code
from qgldpc.gldpc import decode_independent_trials, sogrand_side
from qgldpc.harness import (DECODERS, ExperimentConfig, convergence_study, pseudothreshold,
                            run_sweep, run_trials, uncoded_bler,
                            wilson_interval, CurvePoint)
from qgldpc.orbgrand import RankedInput, rank_flip_table
from qgldpc.osd import OsdConfig, osd_postprocess
from qgldpc.sogrand import SograndParams, decode_block, estimate_missing_mass

PAIRED_TRIALS = 10_000
PAIRED_P = 0.05
PAIRED_SEED = 2024


def all_patterns(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def exact_posteriors(H, L_A, s):
    pats = all_patterns(H.shape[1])
    q1 = 1.0 / (1.0 + np.exp(L_A))
    log_mass = pats @ np.log(q1) + (1 - pats) @ np.log1p(-q1)
    keep = np.all((pats @ H.T) % 2 == s, axis=1)
    mass = np.where(keep, np.exp(log_mass), 0.0)
    total = mass.sum()
    if total == 0.0:
        return None, None
    return (mass[:, None] * pats).sum(axis=0) / total, pats[np.argmax(mass)]


_failure_cache: dict[str, np.ndarray] = {}


def paired_failures(decoder: str) -> np.ndarray:
    """Per-trial failure indicators at the shared operating point."""
    if decoder not in _failure_cache:
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                               p_grid=(PAIRED_P,), trials=PAIRED_TRIALS,
                               master_seed=PAIRED_SEED)
        _failure_cache[decoder] = np.array(
            [rec.logical_failure for rec in run_trials(code, cfg, PAIRED_P, 0, PAIRED_TRIALS)])
    return _failure_cache[decoder]


@pytest.mark.parametrize("decoder", list(DECODERS))
def test_paired_records_are_the_run_trial_loop(decoder):
    code = builtin_code("toy-gldpc")
    cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                           p_grid=(PAIRED_P,), trials=PAIRED_TRIALS, master_seed=PAIRED_SEED)
    assert list(run_trials(code, cfg, PAIRED_P, 0, 200)) == \
        [rec for t in range(200) for rec in run_trials(code, cfg, PAIRED_P, t, t + 1)]


def test_criterion_1_sogrand_exact_at_saturation():
    rng = np.random.default_rng(101)
    cases = 0
    while cases < 1000:
        m_c = int(rng.integers(1, 6))
        n_c = int(rng.integers(m_c + 1, 13))
        H = rng.integers(0, 2, size=(m_c, n_c), dtype=np.uint8)
        L = np.clip(rng.normal(0, 3, size=n_c), -12, 12)
        e = rng.integers(0, 2, size=n_c, dtype=np.uint8)
        s = (H @ e) % 2
        p1_exact, map_exact = exact_posteriors(H, L, s)
        params = SograndParams(list_max=1 << n_c, query_budget=1 << n_c)
        out = decode_block(ComponentCode(H), L[None], s[None], params).row(0)
        p1_hat = 1.0 / (1.0 + np.exp(out.L_APP))
        assert np.allclose(p1_hat, p1_exact, atol=1e-9)
        assert np.array_equal(out.best_pattern, map_exact)
        cases += 1
    print(f"\nACCEPTANCE 1 PASS: sogrand at full budget matched brute-force "
          f"marginals (1e-9) and MAP in {cases}/1000 cases")


def test_criterion_2_orbgrand_enumeration():
    for n in (3, 8, 12):
        table = rank_flip_table(n, 1 << n)
        assert len({row.tobytes() for row in table}) == table.shape[0] == 1 << n
        weights = table @ np.arange(1, n + 1)
        assert np.all(np.diff(weights) >= 0)
    # reliabilities proportional to rank make the logistic-weight schedule
    # coincide exactly with likelihood order
    n = 10
    L = 0.6 * np.arange(1, n + 1)
    ranked = RankedInput.from_llr(L)
    q = 1.0 / (1.0 + np.exp(L))
    probs = []
    for flips in rank_flip_table(n, 1 << n):
        pattern = np.zeros(n, dtype=np.uint8)
        pattern[ranked.perm] = flips
        probs.append(math.exp(np.where(pattern == 1, np.log(q), np.log1p(-q)).sum()))
    assert len(probs) == 1 << n
    assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))
    print("\nACCEPTANCE 2 PASS: schedule table enumerates all patterns once in "
          "non-decreasing logistic weight; ramp reliabilities yield exact "
          "likelihood order")


def test_criterion_3_missing_mass_accounting():
    assert estimate_missing_mass(0.9, 6) == (1 - 0.9) * 2.0 ** -6
    assert estimate_missing_mass(1.0, 3) == 0.0
    rng = np.random.default_rng(103)
    comp = ComponentCode(rng.integers(0, 2, size=(3, 9), dtype=np.uint8))
    for _ in range(300):
        L = rng.normal(0, 2, size=9)
        s = rng.integers(0, 2, size=3, dtype=np.uint8)
        out = decode_block(comp, L[None], s[None]).row(0)
        P_L = math.fsum(out.masses[:out.n_listed])
        P_Lc = estimate_missing_mass(out.P_g, comp.m_c)
        P_tot = P_L + P_Lc
        assert P_tot == pytest.approx(P_L + P_Lc, rel=1e-12, abs=1e-300)
        assert P_Lc == pytest.approx((1 - out.P_g) * 2.0 ** -comp.m_c)
    print("\nACCEPTANCE 3 PASS: missing mass equals (1-P_g)*2^-m_c and "
          "P_L + P_Lc == P_tot on every decode")


def test_criterion_4_gldpc_soundness_and_weight_one_sweep():
    sog = SograndParams(list_max=8)
    checked = 0
    for name in ("toy-gldpc", "steane"):
        code = builtin_code(name)
        rng = np.random.default_rng(104)
        pr = channel.make_priors(channel.DepolarizingParams(0.05), code.n)
        for _ in range(100):
            e = channel.sample_error(channel.DepolarizingParams(0.05), code.n, rng)
            s_x, s_z = channel.syndromes(code, e)
            res = decode_independent_trials(code, pr, s_x[None], s_z[None], 20,
                                            lambda g, s: sogrand_side(g, s, sog)).row(0)
            if res.z_side.converged:
                assert np.array_equal(code.x_graph.syndrome(res.z_side.e_hat), s_z)
                checked += 1
            if res.x_side.converged:
                assert np.array_equal(code.z_graph.syndrome(res.x_side.e_hat), s_x)
                checked += 1
        # every single-qubit Z error decodes with a stabilizer residual: one
        # chunk, trial j with the error on qubit j
        e_z = np.eye(code.n, dtype=np.uint8)
        s_x = np.zeros((code.n, code.h_z.shape[0]), dtype=np.uint8)
        out = decode_independent_trials(
            code, channel.make_priors(channel.DepolarizingParams(0.01), code.n), s_x,
            code.x_graph.syndrome(e_z), 20, lambda g, s: sogrand_side(g, s, sog)).z_side
        assert out.converged.all()
        assert gf2.RowSpace(code.h_z).contains(e_z ^ out.e_hat).all()
    assert checked > 0
    print(f"\nACCEPTANCE 4 PASS: {checked} converged decodes all satisfied the "
          f"syndrome equations; weight-1 Z sweep residuals in row_space(H_Z) "
          f"on both fixtures")


def test_criterion_5_osd_matches_brute_force_ml():
    rng = np.random.default_rng(105)
    cases = 0
    while cases < 1000:
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m + 1, 11))
        H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        e_true = rng.integers(0, 2, size=n, dtype=np.uint8)
        s = gf2.Syndrome(H)(e_true)
        soft = rng.normal(0, 3, size=n)
        q = float(rng.uniform(0.02, 0.45))
        cfg = OsdConfig(order_w=n, strategy="exhaustive_w")
        e = osd_postprocess(H, s, soft, cfg, channel_q=q)
        assert np.array_equal(gf2.Syndrome(H)(e), s)

        log_flip = math.log(q) - math.log1p(-q)
        pats = all_patterns(n)
        keep = np.all((pats @ H.T) % 2 == s, axis=1)
        scores = np.where(keep, pats.sum(axis=1) * log_flip, -np.inf)
        assert float(e.sum()) * log_flip == pytest.approx(scores.max(), abs=1e-9)
        cases += 1
    print(f"\nACCEPTANCE 5 PASS: full-order exhaustive OSD matched brute-force "
          f"ML likelihood in {cases}/1000 cases, all syndrome-consistent")


def test_criterion_6_baseline_ordering():
    f_bp = paired_failures("bp")
    f_sog = paired_failures("sogrand")
    f_osd = paired_failures("sogrand-osd")

    diff = f_sog.astype(int) - f_bp.astype(int)
    se = diff.std(ddof=1) / math.sqrt(PAIRED_TRIALS)
    assert diff.mean() <= 1.96 * se, (
        f"sogrand {f_sog.sum()} vs bp {f_bp.sum()} failures")
    # OSD only rescues trials the plain decoder already lost
    assert f_osd.sum() <= f_sog.sum()
    print(f"\nACCEPTANCE 6 PASS: failures bp={f_bp.sum()} >= "
          f"sogrand={f_sog.sum()} >= sogrand-osd={f_osd.sum()} over "
          f"{PAIRED_TRIALS} paired trials at p={PAIRED_P} "
          f"(no external instance files supplied; large-code smoke run skipped)")


def test_criterion_7_correlation_aware_within_two_sigma():
    # sigma is the standard error of the BLER difference, combining the
    # binomial uncertainty of both estimates
    f_osd = paired_failures("sogrand-osd")
    f_corr = paired_failures("sogrand-osd-corr")
    b_osd = f_osd.mean()
    b_corr = f_corr.mean()
    sigma = math.sqrt((b_osd * (1 - b_osd) + b_corr * (1 - b_corr))
                      / PAIRED_TRIALS)
    assert b_corr <= b_osd + 2.0 * sigma, (
        f"corr bler {b_corr:.4f} vs osd bler {b_osd:.4f}, sigma={sigma:.2e}")
    print(f"\nACCEPTANCE 7 PASS: BLER(sogrand-osd-corr)={b_corr:.4f} <= "
          f"BLER(sogrand-osd)={b_osd:.4f} + 2*sigma ({2 * sigma:.4f}) over "
          f"{PAIRED_TRIALS} paired trials")


def test_criterion_8_convergence_monotone_and_deterministic(tmp_path):
    grid = [1, 2, 3, 5, 10, 20]
    for decoder, trials in (("bp", 3000), ("sogrand", 2000)):
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                               p_grid=(0.06,), trials=trials, master_seed=8)
        rows = convergence_study(cfg, grid)
        fails = [r.point.failures for r in rows]
        assert all(a >= b for a, b in zip(fails, fails[1:])), (decoder, fails)

    paths = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
    for path in paths:
        run_sweep(ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand-osd",
                                   p_grid=(0.02, 0.05), trials=400,
                                   master_seed=9, out_path=path))
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()
    print("\nACCEPTANCE 8 PASS: BLER non-increasing in the iteration budget "
          "for bp and sogrand under common random numbers; repeated sweeps "
          "produce bit-identical CSV")


def test_criterion_9_pseudothreshold_arithmetic():
    assert uncoded_bler(1e-3, 10) == pytest.approx(1 - (1 - 1e-3) ** 10, abs=1e-12)
    assert uncoded_bler(1e-3, 10) == pytest.approx(9.9552e-3, abs=5e-7)

    k = 4
    grid = np.geomspace(1e-4, 3e-2, 12)

    def synth(p):
        return min(1.0, 1000.0 * p * p)

    curve = []
    for p in grid:
        lo, hi = wilson_interval(0, 1)
        curve.append(CurvePoint(p=float(p), decoder_id="sogrand", trials=1,
                                failures=0, bler=synth(float(p)),
                                wilson_ci_low=lo, wilson_ci_high=hi,
                                mean_iterations=1.0, osd_rate=0.0, seed=0))
    est = pseudothreshold(curve, k)

    def f(p):
        return math.log(synth(p)) - math.log(uncoded_bler(p, k))

    lo_p, hi_p = 1e-4, 3e-2
    assert f(lo_p) < 0 < f(hi_p)
    for _ in range(200):
        mid = math.sqrt(lo_p * hi_p)
        if f(mid) < 0:
            lo_p = mid
        else:
            hi_p = mid
    exact = math.sqrt(lo_p * hi_p)
    assert est == pytest.approx(exact, rel=0.01)
    print(f"\nACCEPTANCE 9 PASS: uncoded reference exact to 1e-12; "
          f"interpolated crossing {est:.4g} within 1% of bisection {exact:.4g}")
