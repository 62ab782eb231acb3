import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import isofp.cli as cli
from isofp.cli import main, marginal_weight, reports_for_pair
from isofp.corpus import corpus_1d
from isofp.densities import (closed_form_weight, density_label, full_line_density,
                              make_density, parse_density_spec, radial_marginal)
from isofp.inequality import check_poincare_1d, summarize_reports
from isofp.weights import p_weight_1d


# a 1-D pair, a product pair, an n-D pair, skipped pairs, one covariance,
# one evolution and one evolution with no solver (a tail too heavy)
MIXED_CONFIG = {
    "densities": ["gaussian:sigma=1,n=1", "gaussian:sigma=1,n=2"],
    "theorems": ["poincare_1d", "product", "isotropic_Wstar", "gaussian_anisotropic"],
    "corpus_seed": 7,
    "tolerances": {"ratio_tol": 1e-6},
    "solver": {"cells": 120, "t_final": 4.0, "dt": 5e-3},
    "anisotropic_covariances": [{"V": [[1.0, 0.0], [0.0, 4.0]], "u": [0.0, 0.0]}],
    "evolve_densities": ["gaussian:sigma=1,n=1", "cauchy:beta=1.6,n=2"],
}

TINY_CONFIG = {
    "densities": ["gaussian:sigma=1,n=1"],
    "theorems": ["poincare_1d", "isotropic_Wstar"],
    "corpus_seed": 99,
    "tolerances": {"ratio_tol": 1e-6},
    "solver": {"cells": 120, "t_final": 4.0, "dt": 5e-3},
    "anisotropic_covariances": [],
    "evolve_densities": ["gaussian:sigma=1,n=1"],
}


def assert_no_children():
    # run forks its workers itself, so no child of this process is left
    # running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(ValueError):
    """A task error that does not pickle, since it holds a lambda, and
    would not unpickle either, since its __init__ takes two arguments."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code
        self.hook = lambda: code


class TestWeightsCommand:
    def test_csv_columns_and_accuracy(self, tmp_path):
        code = main(["weights", "--density", "cauchy:beta=3,n=2",
                     "--points", "20", "--out", str(tmp_path)])
        assert code == 0
        files = list(tmp_path.glob("weights_*.csv"))
        assert len(files) == 1
        with files[0].open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rho", "K_closed", "K_quadrature", "rel_err", "density"]
        assert len(rows) == 21
        assert all(float(r[3]) < 1e-6 for r in rows[1:])

    def test_quadrature_column_is_one_call(self, tmp_path, monkeypatch):
        from isofp import weights as wmod

        calls = []
        for name in ("p_weight_1d", "weight_from_density"):
            monkeypatch.setattr(wmod, name, lambda *a, name=name, fn=getattr(wmod, name):
                                calls.append((name, np.shape(a[-1]))) or fn(*a))
        for spec in ("cauchy:beta=3,n=2", "inverse_gamma:mu=2,n=1"):
            assert main(["weights", "--density", spec, "--points", "30",
                         "--out", str(tmp_path)]) == 0
        # K by quadrature is P: one K call per command, and inside it one P
        # call, each on the whole array
        assert calls == 2 * [("weight_from_density", (30,)), ("p_weight_1d", (30,))]

    @pytest.mark.parametrize("beta", ["1.3", "1.5"])
    def test_heavy_cauchy_tail_passes(self, beta, tmp_path):
        assert main(["weights", "--density", f"cauchy:beta={beta},n=2",
                     "--out", str(tmp_path)]) == 0

    def test_unknown_density_exits_nonzero(self, tmp_path, capsys):
        code = main(["weights", "--density", "levy:alpha=1", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown density kind" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ("gaussian:sigma=nan,n=1", "gaussian requires finite parameters, not sigma = nan"),
        ("gaussian:sigma=inf,n=1", "gaussian requires finite parameters, not sigma = inf"),
        ("gaussian:sigma=1,n=1,foo=3",
         "gaussian takes no parameter 'foo'; its parameters are sigma"),
    ])
    def test_malformed_density_writes_nothing(self, spec, message, tmp_path, capsys):
        code = main(["weights", "--density", spec, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_is_an_error(self, points, tmp_path, capsys):
        code = main(["weights", "--density", "gaussian:sigma=1,n=1", "--points", points,
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --points must be at least 1, not {points}\n"
        assert list(tmp_path.iterdir()) == []


class TestCheckCommand:
    def test_writes_json_and_csv(self, tmp_path):
        code = main(["check", "--theorem", "poincare_1d",
                     "--density", "exponential:beta=1,n=2",
                     "--corpus-seed", "5", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(next(tmp_path.glob("check_*.json")).read_text())
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["passed"] >= 40
        assert next(tmp_path.glob("check_*.csv")) is not None

    def test_exponential_gamma_weight_passes(self, tmp_path):
        # the radial marginal weight is rho / beta; beta rho fails for beta < 1
        code = main(["check", "--theorem", "poincare_1d",
                     "--density", "exponential:beta=0.5,n=2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(next(tmp_path.glob("check_*.json")).read_text())
        assert payload["summary"]["passed"] == payload["summary"]["total"] == 41

    def test_seed_determinism_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["check", "--theorem", "poincare_1d",
                         "--density", "cauchy:beta=4,n=3",
                         "--corpus-seed", "7", "--out", str(tmp_path / sub)])
            assert code == 0
        fa = next((tmp_path / "a").glob("check_*.json"))
        fb = next((tmp_path / "b").glob("check_*.json"))
        assert fa.read_bytes() == fb.read_bytes()

    def test_steep_tail_bump_passes_its_self_test(self, tmp_path):
        # tail_bump4 rises over a width of 0.061; its derivative is checked
        # in test_corpus_derivatives.py, and the check passes every member
        code = main(["check", "--theorem", "refined_outside_ball",
                     "--density", "barenblatt:a=2,p=1.5,n=2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(next(tmp_path.glob("check_*.json")).read_text())
        assert payload["summary"]["passed"] == payload["summary"]["total"] == 43

    @pytest.mark.parametrize("theorem", ["poincare_1d", "product", "isotropic_Wstar",
                                         "refined_outside_ball", "hybrid"])
    def test_cauchy_near_the_integrability_edge_is_skipped(self, theorem, tmp_path,
                                                           capsys):
        # beta = 1.01 > n/2 is a density; its normalisation is a closed form,
        # and every check skips it for an unmet weight or tail hypothesis
        code = main(["check", "--theorem", theorem,
                     "--density", "cauchy:beta=1.01,n=2", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("skipped: ")
        payload = json.loads(next(tmp_path.glob("check_*.json")).read_text())
        assert payload["skipped"]

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_malformed_tolerance_exits_2(self, tol, tmp_path, capsys):
        # a nan tolerance left every report inconclusive and an infinite one
        # passed every report, each with exit 0
        code = main(["check", "--theorem", "poincare_1d", "--density", "gaussian:sigma=1,n=1",
                     f"--tol={tol}", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: the ratio tolerance must be finite and nonnegative, got {float(tol)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_skip_reason_for_inapplicable_pair(self, tmp_path, capsys):
        code = main(["check", "--theorem", "isotropic_Wstar",
                     "--density", "gaussian:sigma=1,n=1", "--out", str(tmp_path)])
        assert code == 0
        assert "skipped" in capsys.readouterr().out
        payload = json.loads(next(tmp_path.glob("check_*.json")).read_text())
        assert "skipped" in payload


class TestEvolveCommand:
    def test_trace_and_rates(self, tmp_path):
        code = main(["evolve", "--density", "gaussian:sigma=1,n=1",
                     "--cells", "150", "--t-final", "5", "--dt", "0.002",
                     "--out", str(tmp_path)])
        assert code == 0
        trace = next(tmp_path.glob("trace_*.csv"))
        with trace.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "theta_chi2", "theta_entropy", "hellinger2",
                           "I_theta_chi2", "I_theta_entropy", "mass", "l1_dist"]
        theta = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(np.diff(theta) <= 1e-9)
        rates = json.loads(next(tmp_path.glob("rates_*.json")).read_text())
        assert rates["fitted_chi2_rate"] >= 1.95
        assert rates["hellinger_decay"]["passed"]

    def test_barenblatt_with_small_support(self, tmp_path):
        # the steady-state check once probed within 2h of the origin and exited 2
        assert main(["evolve", "--density", "barenblatt:a=0.5,p=3,n=1",
                     "--t-final", "1", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("rates_*.json"))) == 1

    @pytest.mark.parametrize("a", ["0.3", "0.01"])
    def test_barenblatt_with_support_below_one(self, a, tmp_path):
        # the steady-state check's step once stayed at 1e-3 however small
        # the support, and rejected the weight with exit 2
        assert main(["evolve", "--density", f"barenblatt:a={a},p=3,n=1",
                     "--t-final", "1", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("rates_*.json"))) == 1

    def test_untruncatable_domain_is_an_error(self, tmp_path, capsys):
        # the n = 2 Cauchy tail ~ rho^-2.2 defeats the truncation quadrature
        code = main(["evolve", "--density", "cauchy:beta=1.6,n=2",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: could not truncate the domain: tail too heavy\n")
        assert list(tmp_path.iterdir()) == []

    # rho^(n-1) overflowed at the truncation tail's nodes: an overflow
    # warning at n = 37-39 and "tail too heavy" at n = 40
    @pytest.mark.parametrize("n", [37, 38, 39, 40])
    def test_high_dimensional_gaussian_evolves(self, n, tmp_path):
        assert main(["evolve", "--density", f"gaussian:sigma=1,n={n}", "--cells", "100",
                     "--t-final", "1", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("rates_*.json"))) == 1

    @pytest.mark.parametrize("flag,value,message", [
        ("--dt", "0", "dt must be finite and positive, got 0.0"),
        ("--dt", "-0.001", "dt must be finite and positive, got -0.001"),
        ("--dt", "nan", "dt must be finite and positive, got nan"),
        ("--t-final", "-1", "t_final must be finite and nonnegative, got -1.0"),
        ("--t-final", "inf", "t_final must be finite and nonnegative, got inf"),
    ])
    def test_bad_time_step_is_an_error(self, flag, value, message, tmp_path, capsys):
        code = main(["evolve", "--density", "gaussian:sigma=1,n=1", "--cells", "50",
                     flag, value, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_perturbation_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--density", "gaussian:sigma=1,n=1",
                  "--perturbation", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRunCommand:
    def test_tiny_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "skipped" in captured  # Wstar is inapplicable at n = 1
        manifest = json.loads((out / "manifest.json").read_text())
        names = {e["path"] for e in manifest["files"]}
        assert "summary.md" in names
        assert any(p.startswith("check_poincare_1d") and p.endswith(".json")
                   for p in names)
        assert any(p.startswith("trace_") for p in names)
        # metadata (timestamps) is deliberately outside the manifest
        assert "metadata.json" not in names
        assert (out / "metadata.json").exists()

    def test_manifest_hashes_verify(self, tmp_path):
        import hashlib

        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["path"]

    def test_report_command(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert "Verification summary" in capsys.readouterr().out

    def test_report_detects_tampering(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        target = next(out.glob("check_*.json"))
        target.write_text(target.read_text() + " ")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1

    def test_evolution_without_rate_bound_is_unchecked(self, tmp_path):
        # exponential densities have no rate constant, so no bound is checked
        from isofp.cli import run_experiment

        cfg = dict(TINY_CONFIG, densities=[], theorems=[],
                   evolve_densities=["exponential:beta=1,n=2"])
        code, _, rows = run_experiment(cfg, tmp_path)
        assert code == 0
        assert rows == [("exponential_type(beta=1,n=2)", "relaxation_rate", "unchecked",
                         "no rate bound for this density")]

    def test_evolution_without_fitted_rate_is_unchecked(self, tmp_path):
        # t_final = 0.05 leaves too few samples in the fit window
        from isofp.cli import run_experiment

        cfg = dict(TINY_CONFIG, densities=[], theorems=[],
                   solver=dict(TINY_CONFIG["solver"], t_final=0.05))
        code, _, rows = run_experiment(cfg, tmp_path)
        assert code == 0
        assert [r[2] for r in rows] == ["unchecked"]
        rates = json.loads(next(tmp_path.glob("rates_*.json")).read_text())
        assert rates["fitted_chi2_rate"] is None

    def test_evolution_without_a_solver_is_unchecked(self, tmp_path):
        from isofp.cli import run_experiment

        cfg = dict(TINY_CONFIG, densities=[], theorems=[],
                   evolve_densities=["cauchy:beta=1.6,n=2"])
        code, _, rows = run_experiment(cfg, tmp_path)
        assert code == 0
        assert rows == [("cauchy_type(beta=1.6,n=2)", "relaxation_rate", "unchecked",
                         "no solver: could not truncate the domain: tail too heavy")]
        assert list(tmp_path.glob("trace_*")) == list(tmp_path.glob("rates_*")) == []

    def test_solver_failure_during_evolution_fails_the_run(self, tmp_path, monkeypatch,
                                                          capsys):
        # a built solver whose step fails is a failed run, not an unchecked rate
        from isofp.fpsolver import Solver, SolverError

        def failing_step(self, state, dt):
            raise SolverError("negative density -1.000e-03 produced by a step")

        monkeypatch.setattr(Solver, "step", failing_step)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, densities=[], theorems=[])))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code != 0
        assert capsys.readouterr().err == (
            "error: negative density -1.000e-03 produced by a step\n")
        assert_no_children()

    def test_density_outside_the_marginal_weight_is_skipped(self, tmp_path):
        # beta = 1.5 > n / 2 is a valid density, but the optimal Cauchy
        # marginal weight needs beta > (n + 1) / 2
        from isofp.cli import run_experiment

        cfg = dict(TINY_CONFIG, densities=["cauchy:beta=1.5,n=2"],
                   theorems=["poincare_1d", "product", "isotropic_Wstar",
                             "refined_outside_ball", "hybrid"],
                   evolve_densities=[])
        code, _, rows = run_experiment(cfg, tmp_path)
        assert code == 0
        reasons = {theorem: reason for _, theorem, verdict, reason in rows
                   if verdict == "skipped"}
        assert len(reasons) == len(rows) == 5
        weight = "weight hypothesis not met: requires beta > (n+1)/2"
        for theorem in ("poincare_1d", "product", "isotropic_Wstar"):
            assert reasons[theorem].startswith(weight), theorem
        for theorem in ("refined_outside_ball", "hybrid"):
            assert reasons[theorem].startswith("tail condition unsatisfiable"), theorem
        summary = (tmp_path / "summary.md").read_text()
        assert summary.count("| skipped | ") == 5

    @pytest.mark.parametrize("solver,message", [
        ({"dt": 0.0}, "dt must be finite and positive, got 0.0"),
        ({"dt": -1e-3}, "dt must be finite and positive, got -0.001"),
        ({"t_final": -1.0}, "t_final must be finite and nonnegative, got -1.0"),
        ({"perturbation": "bogus"}, "solver.perturbation: unknown perturbation 'bogus'; "
                                    "allowed: cosine, ramp, shell, tanh"),
        ({"eps": 0.5}, "eps must lie in (0, 0.2] to respect the bounded-quotient hypothesis"),
    ])
    def test_bad_solver_block_fails_before_any_check(self, solver, message, tmp_path,
                                                     capsys, monkeypatch):
        config = dict(TINY_CONFIG, solver=dict(TINY_CONFIG["solver"], **solver))
        self.assert_fails_before_any_work(config, message, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_malformed_tolerance_fails_before_any_work(self, tol, tmp_path, capsys,
                                                      monkeypatch):
        config = dict(TINY_CONFIG, tolerances={"ratio_tol": tol})
        self.assert_fails_before_any_work(
            config, f"the ratio tolerance must be finite and nonnegative, got {tol}",
            tmp_path, capsys, monkeypatch)
        with pytest.raises(ValueError, match="ratio tolerance"):
            cli.run_experiment(config, tmp_path / "direct")
        assert not (tmp_path / "direct").exists()

    def test_unknown_theorem_fails_before_any_check(self, tmp_path, capsys, monkeypatch):
        config = dict(TINY_CONFIG, theorems=["poincare_1d", "bogus"])
        self.assert_fails_before_any_work(
            config, "theorems: unknown theorem 'bogus'; allowed: poincare_1d, product, "
            "isotropic_Wstar, refined_outside_ball, hybrid, gaussian_anisotropic",
            tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("change,message", [
        ({"densities": None}, "config: missing required key 'densities'"),
        ({"anisotropic_covariances": [{"u": [0.0, 0.0]}]},
         "anisotropic_covariances[0]: missing required key 'V'"),
        ({"anisotropic_covariances": [{"V": [[1.0, 0.0], [0.0, 1.0]]},
                                      {"V": [[1.0, 0.0], [0.0, -1.0]]}]},
         "anisotropic_covariances[1]: V must be positive definite"),
        ({"anisotropic_covariances": [{"V": [[1.0, 0.5], [0.0, 1.0]]}]},
         "anisotropic_covariances[0]: V must be symmetric"),
        ({"anisotropic_covariances": [{"V": [1.0, 1.0]}]},
         "anisotropic_covariances[0]: V must be a square matrix"),
        ({"anisotropic_covariances": [{"V": [[1.0, 0.0], [0.0, 1.0]], "u": [1.0, 2.0, 3.0]}]},
         "anisotropic_covariances[0]: u must be a finite vector of 2 components"),
        ({"anisotropic_covariances": [{"V": [[1.0, 0.0], [0.0, 1.0]], "u": [0.0, math.inf]}]},
         "anisotropic_covariances[0]: u must be a finite vector of 2 components"),
    ], ids=["no-densities", "no-V", "indefinite-V", "asymmetric-V", "non-square-V",
            "long-u", "infinite-u"])
    def test_bad_config_fails_before_any_work(self, change, message, tmp_path, capsys,
                                              monkeypatch):
        config = dict(TINY_CONFIG, theorems=["poincare_1d", "gaussian_anisotropic"],
                      **change)
        config = {k: v for k, v in config.items() if v is not None}
        self.assert_fails_before_any_work(config, message, tmp_path, capsys, monkeypatch)

    def test_failing_task_leaves_no_file_behind(self, tmp_path, capsys):
        # one cell leaves the solver no steady-state probe, which only the
        # evolution's worker finds; the weight CSV is written after it
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, solver=dict(TINY_CONFIG["solver"], cells=1))))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: no steady-state probe lies 2h inside the support\n")
        assert not out.exists()
        assert_no_children()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_lowest_failing_task_is_raised(self, cpus, tmp_path, monkeypatch):
        # task 1 fails at once, task 0 later; the run raises task 0's error
        def failing(d, theorem, seed, tol):
            if theorem == "product":
                raise cli.SolverError("the product check failed")
            time.sleep(0.2)
            raise LookupError("the 1-D check failed")

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(cli, "reports_for_pair", failing)
        cfg = dict(TINY_CONFIG, theorems=["poincare_1d", "product"], evolve_densities=[])
        with pytest.raises(LookupError, match="^the 1-D check failed$"):
            cli.run_experiment(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert_no_children()

    def test_unpicklable_task_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # the worker sends the message in the nearest class that pickles
        def failing(*args):
            raise Unpicklable("no report for this pair", 7)

        monkeypatch.setattr(cli, "reports_for_pair", failing)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no report for this pair\n"
        assert not out.exists()
        assert_no_children()

    def test_parent_interrupt_kills_every_worker(self, tmp_path, monkeypatch):
        # every task sleeps for 20 s, and the parent's first read of a
        # worker's results raises; the workers are killed, not waited for
        def sleeping(fn, *args):
            time.sleep(20.0)

        def interrupted(file, mode="r", *args, **kwargs):
            if mode == "rb":
                raise KeyboardInterrupt
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "_timed", sleeping)
        monkeypatch.setattr(cli, "open", interrupted, raising=False)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            cli.run_experiment(TINY_CONFIG, tmp_path / "out")
        assert time.perf_counter() - t0 < 10.0
        assert not (tmp_path / "out").exists()
        assert_no_children()

    def test_run_starts_no_process_pool(self, tmp_path):
        # concurrent.futures itself comes with scipy (through numpy.testing);
        # its process pool and multiprocessing stay unimported
        script = ("import json, sys; import isofp.cli as cli; "
                  "cli.run_experiment(json.loads(sys.argv[1]), sys.argv[2]); "
                  "print(sorted({'concurrent.futures.process', 'multiprocessing'} "
                  "& set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(TINY_CONFIG),
                               str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
        assert (tmp_path / "out" / "manifest.json").exists()

    @staticmethod
    def assert_fails_before_any_work(config, message, tmp_path, capsys, monkeypatch):
        # a task runs in a worker, whose calls never reach this list, so the
        # count is taken where the parent hands the tasks to the workers
        checked = []
        monkeypatch.setattr(cli, "_in_workers", lambda *a: checked.append(a))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert checked == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run --config", "report --out"])
    def test_missing_file_is_an_error(self, command, tmp_path, capsys):
        # a missing config is the file itself, a missing manifest its directory
        code = main([*command.split(), str(tmp_path / "missing")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert "missing" in err and list(tmp_path.iterdir()) == []

    def test_artifacts_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        digests, workers = [], []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"out{len(cpus)}"
            code, _, rows = cli.run_experiment(MIXED_CONFIG, out)
            assert code == 0
            assert_no_children()
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in out.iterdir()
                            if p.name not in ("metadata.json", "profile.json")})
            workers.append(json.loads((out / "profile.json").read_text())["workers"])
        assert workers == [1, 2]
        assert digests[0] == digests[1]
        verdicts = {(lbl, check): verdict for lbl, check, verdict, _ in rows}
        assert verdicts == {
            ("gaussian(sigma=1,n=1)", "poincare_1d"): "pass",
            ("gaussian(sigma=1,n=1)", "product"): "skipped",
            ("gaussian(sigma=1,n=1)", "isotropic_Wstar"): "skipped",
            ("gaussian(sigma=1,n=2)", "poincare_1d"): "pass",
            ("gaussian(sigma=1,n=2)", "product"): "pass",
            ("gaussian(sigma=1,n=2)", "isotropic_Wstar"): "pass",
            ("gaussianV0", "gaussian_anisotropic"): "pass",
            ("gaussian(sigma=1,n=1)", "relaxation_rate"): "pass",
            ("cauchy_type(beta=1.6,n=2)", "relaxation_rate"): "unchecked",
        }

    def test_profile_lists_every_task_outside_the_manifest(self, tmp_path):
        code, _, rows = cli.run_experiment(MIXED_CONFIG, tmp_path)
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "profile.json" not in {e["path"] for e in manifest["files"]}
        profile = json.loads((tmp_path / "profile.json").read_text())
        assert [t["name"] for t in profile["tasks"]] == [f"{r[0]} {r[1]}" for r in rows]
        assert all(t["wall_s"] >= 0.0 and t["cpu_s"] >= 0.0 and t["pid"] > 0
                   for t in profile["tasks"])
        # an evolution marches 800 implicit steps in its worker
        assert all(t["cpu_s"] > 0.0 for t in profile["tasks"]
                   if t["name"] == "gaussian(sigma=1,n=1) relaxation_rate")
        assert profile["workers"] == min(len(cli.os.sched_getaffinity(0)), len(rows))
        assert profile["wall_s"] > 0.0 and profile["peak_rss_mb"] > 0.0

    def test_check_and_evolve_write_what_run_writes(self, tmp_path):
        # a 1-D pair, an n-D pair and an evolution, each alone and in one run
        pairs = [("poincare_1d", "gaussian:sigma=1,n=1"), ("isotropic_Wstar", "cauchy:beta=3,n=2")]
        cfg = dict(TINY_CONFIG, densities=[spec for _, spec in pairs],
                   theorems=[theorem for theorem, _ in pairs])
        ran, one = tmp_path / "run", tmp_path / "one"
        assert cli.run_experiment(cfg, ran)[0] == 0
        with open(ran / "check_summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        for theorem, spec in pairs:
            assert main(["check", "--theorem", theorem, "--density", spec,
                         "--corpus-seed", "99", "--out", str(one)]) == 0
            lbl = density_label(parse_density_spec(spec))
            alone = one / f"check_{theorem}_{cli._slug(lbl)}.json"
            assert alone.read_bytes() == (ran / alone.name).read_bytes()
            with open(alone.with_suffix(".csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == summary[0]
            assert rows[1:] == [r for r in summary if r[:2] == [lbl, theorem]] != []
        assert main(["evolve", "--density", "gaussian:sigma=1,n=1", "--cells", "120",
                     "--t-final", "4", "--dt", "5e-3", "--out", str(one)]) == 0
        for pattern in ("rates_*.json", "trace_*.csv"):
            ran_files, alone = (sorted(d.glob(pattern)) for d in (ran, one))
            assert [p.name for p in ran_files] == [p.name for p in alone] != []
            assert [p.read_bytes() for p in ran_files] == [p.read_bytes() for p in alone]
        rates = json.loads(next(one.glob("rates_*.json")).read_text())
        assert rates["monotone_chi2"] and rates["monotone_hellinger2"]
        assert rates["cells"] == 120 and rates["hellinger_decay"]["passed"]

    @pytest.mark.parametrize("column,name", [("theta_chi2", "chi2"),
                                             ("hellinger2", "hellinger2")])
    def test_rising_functional_fails_run_and_evolve(self, column, name, tmp_path,
                                                    monkeypatch, capsys):
        # the fitted rate passes; only the last sample's rise of 1e-6 fails
        from isofp.fpsolver import Solver

        def rising(self, *args, real=Solver.evolve):
            trace = real(self, *args)
            values = getattr(trace, column)
            values[-1] = values[-2] + 1e-6
            return trace

        monkeypatch.setattr(Solver, "evolve", rising)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, densities=[], theorems=[])))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"| gaussian(sigma=1,n=1) | relaxation_rate | FAIL | {name} rises by "
                "more than 1e-9 |") in (out / "summary.md").read_text()
        rates = json.loads(next(out.glob("rates_*.json")).read_text())
        assert rates["fitted_chi2_rate"] >= 0.95 * rates["rate_bound_2_over_c"]
        assert rates[f"monotone_{name}"] is False
        assert main(["evolve", "--density", "gaussian:sigma=1,n=1", "--cells", "120",
                     "--t-final", "4", "--dt", "5e-3", "--out", str(tmp_path / "e")]) == 1

    def test_unknown_density_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        bad = dict(TINY_CONFIG, densities=["weibull:k=2"])
        cfg.write_text(json.dumps(bad))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCauchyWithoutK:
    """For cauchy beta <= 1 (n = 1) the closed-form K diverges, so the
    1-D check is skipped, ``weights`` and ``evolve`` exit 2, and ``run``
    leaves the evolution unchecked or refuses such a density up front."""

    @staticmethod
    def reason(beta):
        return (f"the closed-form K of cauchy_type requires beta > 1, not beta = {beta}: "
                "the first moment diverges")

    @pytest.mark.parametrize("beta", ["0.51", "0.75", "0.99", "1"])
    def test_poincare_1d_is_skipped(self, beta, tmp_path, capsys):
        code = main(["check", "--theorem", "poincare_1d",
                     "--density", f"cauchy:beta={beta},n=1", "--out", str(tmp_path)])
        assert code == 0
        reason = f"weight hypothesis not met: {self.reason(beta)}"
        assert capsys.readouterr().out == f"skipped: {reason}\n"
        payload = json.loads(next(tmp_path.glob("check_*.json")).read_text())
        assert payload["skipped"] == reason

    @pytest.mark.parametrize("command", ["weights", "evolve"])
    def test_weights_and_evolve_exit_2(self, command, tmp_path, capsys):
        code = main([command, "--density", "cauchy:beta=0.75,n=1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {self.reason('0.75')}\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_evolution_is_unchecked(self, tmp_path):
        cfg = dict(TINY_CONFIG, densities=[], theorems=[],
                   evolve_densities=["cauchy:beta=0.75,n=1"])
        code, _, rows = cli.run_experiment(cfg, tmp_path)
        assert code == 0
        assert rows == [("cauchy_type(beta=0.75,n=1)", "relaxation_rate", "unchecked",
                         f"no solver: {self.reason('0.75')}")]

    def test_run_density_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        config = dict(TINY_CONFIG, densities=["gaussian:sigma=1,n=1", "cauchy:beta=1,n=1"])
        TestRunCommand.assert_fails_before_any_work(config, self.reason("1"), tmp_path,
                                                    capsys, monkeypatch)


class TestHelpers:
    def test_marginal_weight_kinds(self):
        g = make_density("gaussian", {"sigma": 1.0}, 3)
        x = np.array([0.3, 1.0, 2.5])
        P = p_weight_1d(radial_marginal(g).as_density1d(), None, x)
        assert np.array_equal(marginal_weight(g)(x), P)
        c = make_density("cauchy_type", {"beta": 4.0}, 3)
        assert abs(float(marginal_weight(c)(0.0)) - 0.25) < 1e-14

    def test_product_in_four_dimensions(self):
        d = parse_density_spec("gaussian:sigma=2.5,n=4")
        reports = reports_for_pair(d, "product", 2024, 1e-6)
        assert len(reports) >= 40
        assert all(r.status == "ok" and r.passed for r in reports)

    def test_reports_for_pair_skip_strings(self):
        d = make_density("cauchy_type", {"beta": 2.0}, 2)
        out = reports_for_pair(d, "refined_outside_ball", 1, 1e-6)
        assert isinstance(out, str) and "unsatisfiable" in out


class TestLineEntries:
    """The 1-D check of an isotropic n = 1 entry runs on the whole line with
    the weight K(|x|)."""

    SPEC = "exponential:beta=1,n=1"

    def test_exponential_passes(self):
        # the signed weight (1 + x) / beta is negative for x < -1
        reports = reports_for_pair(parse_density_spec(self.SPEC), "poincare_1d", 2024, 1e-6)
        s = summarize_reports(reports)
        assert s["total"] == 41 and s["passed"] == 41

    def test_exponential_fails_under_shrunk_weight(self, monkeypatch):
        d = parse_density_spec(self.SPEC)
        base = reports_for_pair(d, "poincare_1d", 2024, 1e-6)
        real = cli.closed_form_weight
        monkeypatch.setattr(cli, "closed_form_weight", lambda d: dataclasses.replace(
            real(d), fn=lambda r, fn=real(d).fn: 1e-3 * fn(r)))
        shrunk = reports_for_pair(d, "poincare_1d", 2024, 1e-6)
        assert summarize_reports(shrunk)["failed"] > 0
        ok = [(a, b) for a, b in zip(base, shrunk) if a.status == b.status == "ok"]
        assert len(ok) >= 5
        for a, b in ok:
            assert abs(b.ratio - 1e3 * a.ratio) <= 1e-12 * b.ratio, a.witness

    @pytest.mark.parametrize("spec", ["gaussian:sigma=1,n=1", "cauchy:beta=4,n=1"])
    def test_even_weights_unchanged(self, spec):
        # K is even for these entries, so K(|x|) changes no report
        d = parse_density_spec(spec)
        f = full_line_density(d)
        corpus = corpus_1d(f.support, seed=2024, include_linear=d.kind == "gaussian")
        signed = check_poincare_1d(f, closed_form_weight(d), corpus)
        got = reports_for_pair(d, "poincare_1d", 2024, 1e-6)
        assert [dataclasses.asdict(r) for r in got] == [dataclasses.asdict(r) for r in signed]
