import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgldpc
from qgldpc import channel, harness
from qgldpc.cli import _config_from_args, build_parser, main
from qgldpc.codes import ComponentCode, GldpcCode, TannerGraph, builtin_code, write_code
from qgldpc.gf2 import row_reduce
from qgldpc.gldpc import DecodeResult, SideResult
from qgldpc.harness import (CSV_HEADER, DECODERS, CurvePoint, ExperimentConfig,
                            _tail, convergence_study, pseudothreshold,
                            read_csv, resolve_code, run_point, run_sweep,
                            run_trial, run_trials, uncoded_bler, wilson_interval,
                            write_csv)


def make_point(p, bler, trials=10000):
    failures = round(bler * trials)
    lo, hi = wilson_interval(failures, trials)
    return CurvePoint(p=p, decoder_id="sogrand", trials=trials, failures=failures,
                      bler=failures / trials, wilson_ci_low=lo, wilson_ci_high=hi,
                      mean_iterations=1.0, osd_rate=0.0, seed=0)


def z_logical(code):
    """A Z-logical: the first vector of ker H_X outside the row space of H_Z,
    by brute force over all 2^n patterns and a rank test."""
    pats = ((np.arange(1 << code.n)[:, None] >> np.arange(code.n)) & 1).astype(np.uint8)
    rank_z = row_reduce(code.h_z).rank
    for v in pats[~code.x_graph.syndrome(pats).any(axis=1)]:
        if row_reduce(np.vstack([code.h_z, v])).rank > rank_z:
            return v
    raise AssertionError(f"{code.name} has no Z-logical")


class TestSuccessCheck:
    """The harness's batched tail, on chunks whose X side is exact."""

    def _failed(self, code, e_z, e_hat_z, s_z):
        """``_tail`` without OSD on a chunk with Z-side rows (e_z, e_hat_z, s_z)."""
        e_z, e_hat_z, s_z = (np.atleast_2d(a).astype(np.uint8) for a in (e_z, e_hat_z, s_z))
        T = len(e_z)

        def side(e_hat):
            return SideResult(e_hat=e_hat, app=np.zeros(e_hat.shape),
                              converged=np.ones(T, bool), iterations_used=np.ones(T, int))

        zero = np.zeros((T, code.n), dtype=np.uint8)
        result = DecodeResult(z_side=side(e_hat_z), x_side=side(zero))
        e = channel.PauliErrorPattern(e_x=zero, e_z=e_z)
        s_x = np.zeros((T, code.h_z.shape[0]), dtype=np.uint8)
        return _tail(code, result, e, s_x, s_z, None, 0.1)

    def test_exact_recovery_succeeds(self):
        code = builtin_code("toy-gldpc")
        e = channel.sample_error(channel.DepolarizingParams(0.1), code.n,
                                 channel.trial_rng(0, 0.1, 0))
        _, s_z = channel.syndromes(code, e)
        assert not self._failed(code, e.e_z, e.e_z, s_z)[0]

    def test_stabilizer_equivalent_recovery_succeeds(self):
        # differing from the truth by a stabilizer row is still a success
        code = builtin_code("toy-gldpc")
        e_z = np.zeros(code.n, dtype=np.uint8)
        e_z[2] = 1
        s_z = code.x_graph.syndrome(e_z)
        e_hat = e_z ^ code.h_z[0]
        assert not self._failed(code, e_z, e_hat, s_z)[0]

    def test_logical_operator_residual_fails(self):
        code = builtin_code("toy-gldpc")
        logical = z_logical(code)
        e_z = np.zeros(code.n, dtype=np.uint8)
        s_z = np.zeros(code.h_x.shape[0], dtype=np.uint8)
        assert self._failed(code, e_z, logical, s_z)[0]

    def test_wrong_syndrome_fails(self):
        code = builtin_code("toy-gldpc")
        e_z = np.zeros(code.n, dtype=np.uint8)
        e_z[0] = 1
        s_z = code.x_graph.syndrome(e_z)
        assert self._failed(code, e_z, np.zeros(code.n), s_z)[0]

    def test_chunk_checks_each_row(self):
        # the four cases above as the rows of one chunk
        code = builtin_code("toy-gldpc")
        unit = np.eye(code.n, dtype=np.uint8)
        e_z = np.array([unit[3], unit[2], 0 * unit[0], unit[0]])
        e_hat = np.array([unit[3], unit[2] ^ code.h_z[0], z_logical(code), 0 * unit[0]])
        s_z = code.x_graph.syndrome(e_z)
        assert self._failed(code, e_z, e_hat, s_z).tolist() == [False, False, True, True]

    def test_x_side_failure_fails_the_trial(self):
        code = builtin_code("toy-gldpc")
        zero = np.zeros((1, code.n), dtype=np.uint8)
        sides = [SideResult(e_hat=e_hat, app=np.zeros(e_hat.shape), converged=np.ones(1, bool),
                            iterations_used=np.ones(1, int)) for e_hat in (zero, zero.copy())]
        result = DecodeResult(z_side=sides[0], x_side=sides[1])
        e = channel.PauliErrorPattern(e_x=np.eye(code.n, dtype=np.uint8)[:1], e_z=zero)
        s_x, s_z = channel.syndromes(code, e)
        assert _tail(code, result, e, s_x, s_z, None, 0.1).tolist() == [True]


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

    @pytest.mark.parametrize("failures, trials", [(5, 3), (-1, 3)])
    def test_failures_outside_trials(self, failures, trials):
        with pytest.raises(ValueError, match=f"failures={failures}, trials={trials}"):
            wilson_interval(failures, trials)


class TestTrialsAndPoints:
    def test_trial_reproducible(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand",
                               p_grid=(0.05,), trials=1, master_seed=9)
        a, = run_trials(code, cfg, 0.05, 4, 5)
        b, = run_trials(code, cfg, 0.05, 4, 5)
        assert a == b

    def test_one_trial_view_is_the_chunk_record(self):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="sogrand-osd",
                               p_grid=(0.1,), trials=8, master_seed=9)
        assert [run_trial(code, cfg, 0.1, t) for t in range(8)] == \
            list(run_trials(code, cfg, 0.1, 0, 8))

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
            rec, = run_trials(code, cfg, 0.15, t, t + 1)
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
        for bad, message in ((dict(n_iter=0), "n_iter"), (dict(alpha=0.0), "alpha"),
                             (dict(alpha=1.5), "alpha"), (dict(master_seed=-1), "seed"),
                             # counts are integers: a float or bool once built, then failed late
                             (dict(trials=2.5), "trials"), (dict(trials=True), "trials"),
                             (dict(n_iter=2.5), "n_iter"), (dict(max_failures=1.5), "max_failures"),
                             (dict(master_seed=1.5), "master_seed"), (dict(p_grid=()), "p_grid")):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(code="builtin:steane", **bad)
        # numpy integers are counts too
        ExperimentConfig(code="builtin:steane", trials=np.int64(5), n_iter=np.int32(3),
                         master_seed=np.uint32(7), max_failures=np.int64(2))
        # the decoding range (0, 3/4], at both ends
        ExperimentConfig(code="builtin:steane", p_grid=(1e-9, 0.75))
        for p in (0.0, np.nextafter(0.75, 1.0)):
            with pytest.raises(ValueError, match="3/4"):
                ExperimentConfig(code="builtin:steane", p_grid=(p,))

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
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_metadata_written(self, tmp_path):
        path = str(tmp_path / "c.csv")
        run_sweep(ExperimentConfig(code="builtin:steane", decoder="sogrand",
                                   p_grid=(0.02,), trials=20, out_path=path))
        import json
        meta = json.loads(Path(path + ".meta.json").read_text())
        assert meta["decoder"] == "sogrand"
        assert meta["n_iter_resolved"] == 20
        # numpy scalars, which the configs accept, are written as JSON numbers
        run_sweep(ExperimentConfig(code="builtin:steane", p_grid=(np.float32(0.05),),
                                   trials=np.int64(5), master_seed=np.int32(3),
                                   n_iter=np.int16(4), out_path=path))
        meta = json.loads(Path(path + ".meta.json").read_text())
        assert [meta[key] for key in ("trials", "master_seed", "n_iter", "n_iter_resolved")] \
            == [5, 3, 4, 4]
        assert meta["p_grid"] == [float(np.float32(0.05))]

    @pytest.mark.parametrize("text, message", [
        ("p,decoder,trials\n0.01,sogrand,10\n", "missing columns failures, bler"),
        (",".join(CSV_HEADER) + "\n0.01,sogrand,10,1,0.1,0.0,0.4,2.0,0.0,0\n"
         "0.02,sogrand,ten,1,0.1,0.0,0.4,2.0,0.0,0\n", "line 3: invalid literal"),
    ], ids=["missing-column", "malformed-number"])
    def test_unreadable_csv_names_file_and_cause(self, tmp_path, capsys, text, message):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_csv(str(path))
        assert str(path) in str(info.value)
        assert main(["threshold", "--in", str(path), "--k", "3"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["no-such-dir/curve.csv", "a-directory"],
                             ids=["missing-parent", "directory"])
    def test_unwritable_out_fails_before_any_point(self, tmp_path, monkeypatch, name):
        calls = []
        monkeypatch.setattr(harness, "run_point", lambda *args: calls.append(args))
        (tmp_path / "a-directory").mkdir()
        with pytest.raises(OSError, match="cannot write"):
            run_sweep(ExperimentConfig(code="builtin:steane", p_grid=(0.01, 0.02),
                                       trials=5, out_path=str(tmp_path / name)))
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]
        assert list((tmp_path / "a-directory").iterdir()) == []

    def test_crash_keeps_finished_points(self, tmp_path, monkeypatch):
        def crash_on_second_p(code, cfg, p):
            if p == cfg.p_grid[1]:
                raise RuntimeError("crash")
            return run_point(code, cfg, p)

        monkeypatch.setattr(harness, "run_point", crash_on_second_p)
        path = str(tmp_path / "curve.csv")
        cfg = ExperimentConfig(code="builtin:steane", decoder="sogrand",
                               p_grid=(0.01, 0.02, 0.03), trials=20, out_path=path)
        with pytest.raises(RuntimeError, match="crash"):
            run_sweep(cfg)
        (back,) = read_csv(path)
        first = run_point(resolve_code(cfg.code), cfg, 0.01)
        assert (back.p, back.trials, back.failures) == (first.p, first.trials, first.failures)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv",
                                                              "curve.csv.meta.json"]


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

    def test_k_below_one_rejected(self, tmp_path, capsys):
        curve = [make_point(0.005, 0.001), make_point(0.01, 0.01)]
        with pytest.raises(ValueError, match="k"):
            pseudothreshold(curve, 0)
        path = str(tmp_path / "curve.csv")
        write_csv(curve, path)
        assert main(["threshold", "--in", path, "--k", "0"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "qgldpc threshold: error: k (logical qubits) must be >= 1, got 0"]


class TestDecoderRegistry:
    @pytest.mark.parametrize("decoder", list(DECODERS))
    def test_every_decoder_runs_a_toy_trial(self, decoder):
        code = builtin_code("toy-gldpc")
        cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                               p_grid=(0.1, 0.75), trials=1, master_seed=4)
        # at p = 3/4 the channel LLR is 0, and OSD with q = 1/2 picks the lightest candidate
        for p in cfg.p_grid:
            rec, = run_trials(code, cfg, p, 0, 1)
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

    def test_rejects_empty_iteration_grid(self, capsys):
        cfg = ExperimentConfig(code="builtin:steane", decoder="sogrand", trials=5)
        with pytest.raises(ValueError, match="empty"):
            convergence_study(cfg, [])
        rc = main(["convergence", "--code", "builtin:steane", "--p", "0.01",
                   "--trials", "5", "--iters-grid", "5:1"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["qgldpc convergence: error: the iteration grid is empty"]

    def test_bad_budget_runs_no_point(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_point", lambda *args: calls.append(args))
        rc = main(["convergence", "--code", "builtin:steane", "--p", "0.01",
                   "--trials", "5", "--iters-grid", "3,0"])
        assert rc == 2 and calls == []
        assert capsys.readouterr().err.splitlines() == [
            "qgldpc convergence: error: n_iter must be >= 1"]

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
        ["--code", "builtin:toric-1", "--p", "0.05", "--trials", "5"],
        ["--code", "builtin:toric-x", "--p", "0.05", "--trials", "5"],
        ["--code", "builtin:toric-", "--p", "0.05", "--trials", "5"],
        ["--code", "builtin:toy-gldpc", "--p", "0.05", "--trials", "5", "--iters", "0",
         "--out", "f.csv"],
        ["--code", "builtin:toy-gldpc", "--p", "0.05", "--trials", "5", "--decoder", "bp",
         "--alpha", "0", "--out", "f.csv"],
        ["--code", "builtin:toy-gldpc", "--p", "0.05", "--trials", "5", "--seed", "-1",
         "--out", "f.csv"],
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
        assert list(tmp_path.iterdir()) == []  # a bad config writes no file

    def test_sim_builtin_toric_l(self, capsys):
        rc = main(["sim", "--code", "builtin:toric-12", "--decoder", "bp-osd",
                   "--p", "0.05", "--trials", "2", "--seed", "1"])
        assert rc == 0
        assert "bler=" in capsys.readouterr().out

    def test_validate_builtin(self, capsys):
        rc = main(["validate", "--code", "builtin:toy-gldpc"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_both_components_when_they_differ(self, capsys, tmp_path):
        # Hamming-7 on the X graph, its first two rows on the Z graph: k = 7 - 3 - 2
        hamming = builtin_code("steane").x_graph.component.H
        cns = [list(range(7)), list(range(7))]
        code = GldpcCode(name="ham-7-2", n=7, k=2, d=2,
                         x_graph=TannerGraph(7, cns, ComponentCode(hamming)),
                         z_graph=TannerGraph(7, cns, ComponentCode(hamming[:2])))
        write_code(code, tmp_path / "ham.json")
        assert main(["validate", "--code", str(tmp_path / "ham.json")]) == 0
        assert capsys.readouterr().out == ("OK: ham-7-2 [[7,2,2]] x_checks=2 z_checks=2 "
                                           "x_component=3x7 z_component=2x7\n")
        assert main(["validate", "--code", "builtin:steane"]) == 0
        assert capsys.readouterr().out == ("OK: steane [[7,1,3]] x_checks=2 z_checks=2 "
                                           "component=3x7\n")

    @pytest.mark.parametrize("command", ["sim", "convergence"])
    def test_defaults_are_the_configs(self, command):
        argv = [command, "--code", "builtin:steane", "--p", "0.05"]
        if command == "convergence":
            argv += ["--iters-grid", "1,2"]
        cfg = _config_from_args(build_parser().parse_args(argv))
        assert cfg == ExperimentConfig(code="builtin:steane", p_grid=(0.05,))

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        header = '{"name": "t", "n": 4, "k": 0, "d": 1'
        graph = '{"component_H": [[1, 1, 1, 1], [1, 1, 0, 0]], "cns": [[0, 1, 2, 3], [0, 1, 2, 3]]}'
        for text, reason in (("{", "parse"), (header + "}", "missing x_graph"),
                             (header + ', "z_graph": ' + graph + "}", "missing x_graph"),
                             (header + ', "x_graph": ' + graph + "}", "missing z_graph")):
            bad.write_text(text)
            rc = main(["validate", "--code", str(bad)])
            assert rc == 1
            out = capsys.readouterr().out
            assert out.startswith("INVALID: ") and reason in out
