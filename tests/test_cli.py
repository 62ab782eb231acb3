import csv
import dataclasses
import json

import numpy as np
import pytest

import isofp.cli as cli
from isofp.cli import main, catalog_K, marginal_weight, reports_for_pair
from isofp.corpus import corpus_1d
from isofp.densities import full_line_density, make_density, parse_density_spec
from isofp.inequality import check_poincare_1d, summarize_reports


TINY_CONFIG = {
    "densities": ["gaussian:sigma=1,n=1"],
    "theorems": ["poincare_1d", "isotropic_Wstar"],
    "corpus_seed": 99,
    "tolerances": {"ratio_tol": 1e-6},
    "solver": {"cells": 120, "t_final": 4.0, "dt": 5e-3},
    "anisotropic_covariances": [],
    "evolve_densities": ["gaussian:sigma=1,n=1"],
}


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
            monkeypatch.setattr(wmod, name, lambda *a, fn=getattr(wmod, name):
                                calls.append(np.shape(a[-1])) or fn(*a))
        for spec in ("cauchy:beta=3,n=2", "inverse_gamma:mu=2,n=1"):
            assert main(["weights", "--density", spec, "--points", "30",
                         "--out", str(tmp_path)]) == 0
        assert calls == [(30,), (30,)]

    def test_unknown_density_exits_nonzero(self, tmp_path, capsys):
        code = main(["weights", "--density", "levy:alpha=1", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown density kind" in capsys.readouterr().err


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

    def test_seed_determinism_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["check", "--theorem", "poincare_1d",
                         "--density", "cauchy:beta=4,n=3",
                         "--corpus-seed", "7", "--out", str(tmp_path / sub)])
            assert code == 0
        fa = next((tmp_path / "a").glob("check_*.json"))
        fb = next((tmp_path / "b").glob("check_*.json"))
        assert fa.read_bytes() == fb.read_bytes()

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

    def test_unknown_density_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        bad = dict(TINY_CONFIG, densities=["weibull:k=2"])
        cfg.write_text(json.dumps(bad))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestHelpers:
    def test_catalog_K_inverse_gamma(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        K = catalog_K(d)
        assert abs(float(K(3.0)) - 4.5) < 1e-14

    def test_marginal_weight_kinds(self):
        g = make_density("gaussian", {"sigma": 1.0}, 3)
        assert marginal_weight(g).provenance == "pq_family"
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
        real = cli.catalog_K
        monkeypatch.setattr(cli, "catalog_K", lambda d: dataclasses.replace(
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
        signed = check_poincare_1d(f, catalog_K(d), corpus)
        got = reports_for_pair(d, "poincare_1d", 2024, 1e-6)
        assert [dataclasses.asdict(r) for r in got] == [dataclasses.asdict(r) for r in signed]
