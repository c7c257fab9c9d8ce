import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgldpc
from qgldpc import channel
from qgldpc.cli import main
from qgldpc.codes import builtin_code
from qgldpc.gldpc import SideResult
from qgldpc.harness import (CSV_HEADER, DECODERS, CurvePoint, ExperimentConfig,
                            _side_success, convergence_study, pseudothreshold,
                            read_csv, resolve_code, run_point, run_sweep,
                            run_trial, uncoded_bler, wilson_interval, write_csv)


def make_point(p, bler, trials=10000):
    failures = round(bler * trials)
    lo, hi = wilson_interval(failures, trials)
    return CurvePoint(p=p, decoder_id="sogrand", trials=trials, failures=failures,
                      bler=failures / trials, wilson_ci_low=lo, wilson_ci_high=hi,
                      mean_iterations=1.0, osd_rate=0.0, seed=0)


class TestSuccessCheck:
    def _side(self, e_hat):
        return SideResult(e_hat=e_hat.astype(np.uint8), converged=True,
                          iterations_used=1, app=np.zeros(e_hat.shape[0]))

    def test_exact_recovery_succeeds(self):
        code = builtin_code("toy-gldpc")
        e = channel.sample_error(channel.DepolarizingParams(0.1), code.n,
                                 channel.trial_rng(0, 0.1, 0))
        _, s_z = channel.syndromes(code, e)
        assert _side_success(code, self._side(e.e_z), e.e_z, s_z, z_side=True)

    def test_stabilizer_equivalent_recovery_succeeds(self):
        # differing from the truth by a stabilizer row is still a success
        code = builtin_code("toy-gldpc")
        e_z = np.zeros(code.n, dtype=np.uint8)
        e_z[2] = 1
        s_z = code.x_graph.syndrome(e_z)
        e_hat = e_z ^ code.h_z[0]
        assert _side_success(code, self._side(e_hat), e_z, s_z, z_side=True)

    def test_logical_operator_residual_fails(self):
        from qgldpc.codes import compute_logicals
        code = builtin_code("toy-gldpc")
        logical = compute_logicals(code).z_logicals[0]
        e_z = np.zeros(code.n, dtype=np.uint8)
        s_z = np.zeros(code.h_x.shape[0], dtype=np.uint8)
        assert not _side_success(code, self._side(np.asarray(logical)), e_z,
                                 s_z, z_side=True)

    def test_wrong_syndrome_fails(self):
        code = builtin_code("toy-gldpc")
        e_z = np.zeros(code.n, dtype=np.uint8)
        e_z[0] = 1
        s_z = code.x_graph.syndrome(e_z)
        assert not _side_success(code, self._side(np.zeros(code.n)), e_z, s_z,
                                 z_side=True)


class TestWilsonInterval:
    def test_zero_failures_informative(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < hi < 0.01

    def test_contains_point_estimate(self):
        for failures, trials in ((1, 10), (50, 200), (999, 1000)):
            lo, hi = wilson_interval(failures, trials)
            assert lo <= failures / trials <= hi

    def test_half_frozen_value(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40383, abs=1e-4)
        assert hi == pytest.approx(0.59617, abs=1e-4)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestTrialsAndPoints:
    def test_trial_reproducible(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand",
                               p_grid=(0.05,), trials=1, master_seed=9)
        a = run_trial(code, cfg, 0.05, 4)
        b = run_trial(code, cfg, 0.05, 4)
        assert a == b

    def test_point_counts_consistent(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand",
                               p_grid=(0.08,), trials=200, master_seed=1)
        pt = run_point(code, cfg, 0.08)
        assert pt.trials == 200
        assert 0 <= pt.failures <= 200
        assert pt.bler == pt.failures / pt.trials
        assert pt.wilson_ci_low <= pt.bler <= pt.wilson_ci_high
        assert 1.0 <= pt.mean_iterations <= 20.0

    def test_max_failures_early_stop(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="bp",
                               p_grid=(0.3,), trials=5000, master_seed=2,
                               max_failures=5)
        pt = run_point(code, cfg, 0.3)
        assert pt.failures == 5
        assert pt.trials < 5000

    def test_osd_rate_zero_without_osd(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand",
                               p_grid=(0.05,), trials=100, master_seed=3)
        assert run_point(code, cfg, 0.05).osd_rate == 0.0

    def test_osd_decoder_always_converges(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand-osd",
                               p_grid=(0.15,), trials=100, master_seed=3)
        for t in range(50):
            rec = run_trial(code, cfg, 0.15, t)
            assert rec.iterations_used <= 20

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(code="builtin:steane", decoder="magic")
        with pytest.raises(ValueError):
            ExperimentConfig(code="builtin:steane", p_grid=(0.8,))
        with pytest.raises(ValueError):
            ExperimentConfig(code="builtin:steane", trials=0)
        for max_failures in (0, -3):
            with pytest.raises(ValueError, match="max_failures"):
                ExperimentConfig(code="builtin:steane", max_failures=max_failures)

    def test_resolve_code(self, tmp_path):
        from qgldpc.codes import write_code
        code = builtin_code("steane")
        assert resolve_code("builtin:steane").name == "steane"
        path = tmp_path / "steane.json"
        write_code(code, path)
        assert resolve_code(str(path)).n == 7


class TestCsvAndDeterminism:
    def test_round_trip(self, tmp_path):
        points = [make_point(0.01, 0.002), make_point(0.05, 0.13)]
        path = str(tmp_path / "curve.csv")
        write_csv(points, path)
        with open(path) as fh:
            assert fh.readline().strip() == ",".join(CSV_HEADER)
        back = read_csv(path)
        assert len(back) == len(points)
        for a, b in zip(back, points):
            assert (a.decoder_id, a.trials, a.failures, a.seed) == \
                   (b.decoder_id, b.trials, b.failures, b.seed)
            assert a.p == pytest.approx(b.p, rel=1e-11)
            assert a.bler == pytest.approx(b.bler, rel=1e-11)
            assert a.wilson_ci_low == pytest.approx(b.wilson_ci_low, rel=1e-11)
            assert a.wilson_ci_high == pytest.approx(b.wilson_ci_high, rel=1e-11)

    def test_sweep_csv_bit_identical(self, tmp_path):
        cfg_kwargs = dict(code="builtin:toy-gldpc", decoder="sogrand-osd",
                          p_grid=(0.03, 0.06), trials=150, master_seed=77)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_sweep(ExperimentConfig(out_path=p1, **cfg_kwargs))
        run_sweep(ExperimentConfig(out_path=p2, **cfg_kwargs))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_metadata_written(self, tmp_path):
        path = str(tmp_path / "c.csv")
        run_sweep(ExperimentConfig(code="builtin:steane", decoder="sogrand",
                                   p_grid=(0.02,), trials=20, out_path=path))
        import json
        meta = json.load(open(path + ".meta.json"))
        assert meta["decoder"] == "sogrand"
        assert meta["n_iter_resolved"] == 20


class TestPseudothreshold:
    def test_uncoded_reference_value(self):
        # 1 - (1 - 1e-3)^10, exact to full precision
        assert uncoded_bler(1e-3, 10) == pytest.approx(
            1 - (1 - 1e-3) ** 10, abs=1e-12)
        assert uncoded_bler(1e-3, 10) == pytest.approx(9.95512e-3, abs=1e-7)

    def test_quadratic_curve_against_bisection(self):
        # synthetic decoder curve bler = 1000 p^2 crossing 1 - (1-p)^k
        k = 4
        grid = np.geomspace(1e-4, 3e-2, 12)
        curve = [make_point(float(p), min(1.0, 1000 * p * p)) for p in grid]
        # avoid rounding to the 10^4-trial lattice: set bler exactly
        for c in curve:
            c.bler = min(1.0, 1000 * c.p * c.p)
        est = pseudothreshold(curve, k)

        def f(p):
            return math.log(1000 * p * p) - math.log(uncoded_bler(p, k))
        lo, hi = 1e-4, 3e-2
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        exact = math.sqrt(lo * hi)
        assert est == pytest.approx(exact, rel=0.01)

    def test_exact_grid_point_crossing(self):
        k = 3
        p0 = 0.01
        curve = [make_point(p0 / 2, uncoded_bler(p0 / 2, k) / 4),
                 make_point(p0, uncoded_bler(p0, k)),
                 make_point(2 * p0, min(1.0, uncoded_bler(2 * p0, k) * 4))]
        for c, b in zip(curve, (uncoded_bler(p0 / 2, k) / 4, uncoded_bler(p0, k),
                                min(1.0, uncoded_bler(2 * p0, k) * 4))):
            c.bler = b
        assert pseudothreshold(curve, k) == pytest.approx(p0, rel=1e-9)

    def test_not_bracketed_returns_none(self):
        curve = [make_point(0.01, 0.5), make_point(0.02, 0.6)]
        for c, b in zip(curve, (0.5, 0.6)):
            c.bler = b
        assert pseudothreshold(curve, 2) is None

    def test_zero_bler_points_skipped(self):
        curve = [make_point(0.001, 0.0), make_point(0.01, 0.0)]
        assert pseudothreshold(curve, 3) is None


class TestDecoderRegistry:
    @pytest.mark.parametrize("decoder", list(DECODERS))
    def test_every_decoder_runs_a_toy_trial(self, decoder):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                               p_grid=(0.1,), trials=1, master_seed=4)
        rec = run_trial(code, cfg, 0.1, 0)
        assert 1 <= rec.iterations_used <= DECODERS[decoder].n_iter
        assert rec.osd_invoked <= DECODERS[decoder].osd

    def test_cli_choices_are_the_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["sim", "--help"])
        assert "--decoder {" + ",".join(DECODERS) + "}" in capsys.readouterr().out


class TestConvergenceStudy:
    @pytest.mark.parametrize("p_grid", [(0.01, 0.05), (0.01, 0.05, 0.1)])
    def test_rejects_more_than_one_p(self, p_grid):
        cfg = ExperimentConfig(code="builtin:steane", decoder="sogrand",
                               p_grid=p_grid, trials=5)
        with pytest.raises(ValueError, match="one p"):
            convergence_study(cfg, [1, 2])

    def test_common_randomness_and_monotone_failures(self):
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand",
                               p_grid=(0.06,), trials=400, master_seed=5)
        rows = convergence_study(cfg, [1, 3, 10])
        fails = [r.point.failures for r in rows]
        assert fails[0] >= fails[1] >= fails[2]
        again = convergence_study(cfg, [1, 3, 10])
        assert [r.point.failures for r in again] == fails


class TestCli:
    def test_sim(self, capsys, tmp_path):
        out = str(tmp_path / "sim.csv")
        rc = main(["sim", "--code", "builtin:steane", "--decoder", "sogrand",
                   "--p", "0.01,0.05", "--trials", "50", "--seed", "1",
                   "--out", out])
        assert rc == 0
        assert len(read_csv(out)) == 2
        assert "bler=" in capsys.readouterr().out

    def test_threshold(self, capsys, tmp_path):
        path = str(tmp_path / "curve.csv")
        k = 3
        pts = [make_point(0.005, 0.0), make_point(0.01, 0.0)]
        pts[0].bler, pts[1].bler = uncoded_bler(0.005, k) / 2, uncoded_bler(0.01, k) * 2
        write_csv(pts, path)
        rc = main(["threshold", "--in", path, "--k", str(k)])
        assert rc == 0
        assert "pseudothreshold" in capsys.readouterr().out

    def test_convergence(self, capsys):
        rc = main(["convergence", "--code", "builtin:steane",
                   "--decoder", "sogrand", "--p", "0.03", "--trials", "30",
                   "--iters-grid", "1,2", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("n_iter,bler")

    def test_convergence_rejects_p_grid(self, capsys):
        rc = main(["convergence", "--code", "builtin:steane", "--p", "0.01,0.05",
                   "--trials", "5", "--iters-grid", "1,2"])
        assert rc != 0
        assert "one p" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--code", "builtin:steane", "--p", "0.8", "--trials", "5"],
        ["--code", "builtin:steane", "--p", "0.05", "--trials", "0"],
        ["--code", "builtin:nope", "--p", "0.05", "--trials", "5"],
        ["--code", "no-such-code.json", "--p", "0.05", "--trials", "5"],
        ["--code", "builtin:toy-gldpc", "--p", "0.05", "--trials", "500",
         "--max-failures", "0"],
        ["--code", "builtin:toy-gldpc", "--p", "0.05", "--trials", "500",
         "--max-failures", "-3"],
    ])
    def test_sim_bad_input_is_one_line_error(self, args, tmp_path):
        src = str(Path(qgldpc.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "qgldpc.cli", "sim", *args],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={"PYTHONPATH": src})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qgldpc sim: error: ")

    def test_validate_builtin(self, capsys):
        rc = main(["validate", "--code", "builtin:toy-gldpc"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc = main(["validate", "--code", str(bad)])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().out
