"""Configuration-driven command line front end.

Subcommands: ``weights`` (closed form vs quadrature CSV), ``check``
(inequality reports as JSON + CSV), ``evolve`` (decay trace CSV + rate
summary JSON), ``run`` (full experiment from a JSON config) and
``report`` (regenerate the markdown summary from a manifest).  Outputs
are deterministic for a fixed config and seed; timestamps go to a
separate metadata file so report payloads are byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import weights as wmod
from .corpus import (corpus_1d, corpus_anisotropic, corpus_nd,
                     corpus_outside_ball, corpus_product)
from .densities import (full_line_density, parse_density_spec,
                        radial_marginal, sin_power_density,
                        uniform_angle_density, closed_form_weight,
                        density_label)
from .fpsolver import (build_solver, perturbed_initial_state,
                       verify_hellinger_decay)
from .inequality import (check_gaussian_anisotropic, check_hybrid,
                         check_isotropic_Wstar, check_poincare_1d,
                         check_product, check_refined_outside_ball,
                         summarize_reports)

THEOREMS = ("poincare_1d", "product", "isotropic_Wstar",
            "refined_outside_ball", "hybrid", "gaussian_anisotropic")

DEFAULT_CONFIG = {
    "densities": [
        "gaussian:sigma=1,n=1",
        "gaussian:sigma=1,n=3",
        "cauchy:beta=3,n=2",
        "cauchy:beta=4,n=3",
        "exponential:beta=1,n=2",
        "barenblatt:a=1,p=2,n=2",
        "inverse_gamma:mu=2,n=1",
    ],
    "theorems": list(THEOREMS),
    "corpus_seed": 2024,
    "tolerances": {"ratio_tol": 1e-6},
    "solver": {"cells": 400, "t_final": 10.0, "dt": 1e-3,
               "truncation_mass": 1e-12, "eps": 0.1, "perturbation": "cosine"},
    "anisotropic_covariances": [
        {"V": [[1.0, 0.0], [0.0, 1.0]], "u": [0.0, 0.0]},
        {"V": [[1.0, 0.0], [0.0, 4.0]], "u": [0.0, 0.0]},
        {"V": [[1.75, 1.299038105676658], [1.299038105676658, 3.25]],
         "u": [0.3, -0.2]},
    ],
    "evolve_densities": ["gaussian:sigma=1,n=1", "cauchy:beta=4,n=1"],
    "output_dir": "out",
}


# ---------------------------------------------------------------------------
# Weight resolution for catalog densities
# ---------------------------------------------------------------------------


def catalog_K(d):
    """The diffusion weight K of a catalog density (closed form; the 1-D
    inverse Gamma gets its integral weight x^2 / mu)."""
    K = closed_form_weight(d)
    if K is not None:
        return K
    mu = d.param("mu")
    return wmod.WeightFunction(
        lambda x: np.asarray(x, dtype=float) ** 2 / mu,
        provenance="closed_form", domain=(0.0, math.inf))


def _even_weight(K):
    """The weight x -> K(|x|) on the line, for an isotropic entry with n = 1;
    it kinks at 0 and at +-b for every breakpoint b of K."""
    bp = K.breakpoints
    return dataclasses.replace(
        K, fn=lambda x, fn=K.fn: fn(np.abs(np.asarray(x, dtype=float))),
        domain=(-K.domain[1], K.domain[1]),
        breakpoints=tuple(sorted({0.0, *bp, *(-b for b in bp)})))


def marginal_weight(d):
    """One-dimensional Poincare weight of the radial marginal."""
    if d.kind == "cauchy_type":
        return wmod.optimal_cauchy_weight(d.param("beta"), d.n)
    if d.kind == "barenblatt":
        return wmod.optimal_barenblatt_weight(d.param("p"), d.n, d.param("a"))
    if d.kind == "exponential_type":
        return wmod.gamma_radial_weight(d.param("beta"))
    if d.kind == "inverse_gamma_1d":
        return catalog_K(d)
    return wmod.p_weight_function(radial_marginal(d).as_density1d())


def _corpus_scale(d):
    if np.isfinite(d.support_radius):
        return 0.45 * d.support_radius
    return 1.0


# ---------------------------------------------------------------------------
# Serialisation helpers
# ---------------------------------------------------------------------------


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_plain(payload), sort_keys=True, indent=1) + "\n")
    return path


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# weights subcommand
# ---------------------------------------------------------------------------


def _quadrature_weight_column(d, rho):
    """The weight on the array ``rho`` by the quadrature route matching the
    density's drift centre: the isotropic integral map for m = 0, the 1-D
    integral weight about m for the inverse Gamma.  One call covers the
    whole array."""
    if d.kind == "inverse_gamma_1d":
        f = radial_marginal(d).as_density1d()
        return wmod.p_weight_1d(f, d.drift_mean, rho)
    return wmod.weight_from_density(d, rho)


def cmd_weights(args):
    d = parse_density_spec(args.density)
    K_closed = catalog_K(d)
    i_plus = d.support_radius
    hi = i_plus if np.isfinite(i_plus) else 6.0
    rho = np.linspace(hi * 0.01, hi * 0.99, args.points)
    rows = []
    for r, kc, kq in zip(rho, K_closed(rho), _quadrature_weight_column(d, rho)):
        rel = abs(kq - kc) / abs(kc) if kc != 0 else abs(kq)
        rows.append([f"{r:.12g}", f"{kc:.16g}", f"{kq:.16g}", f"{rel:.3e}",
                     density_label(d)])
    out = Path(args.out) / f"weights_{_slug(density_label(d))}.csv"
    _write_csv(out, ["rho", "K_closed", "K_quadrature", "rel_err", "density"], rows)
    worst = max(float(r[3]) for r in rows)
    print(f"wrote {out} (max rel err {worst:.3e})")
    return 0 if worst < 1e-6 else 1


def _slug(label):
    return (label.replace("(", "_").replace(")", "").replace(",", "_")
            .replace("=", "").replace(".", "p"))


# ---------------------------------------------------------------------------
# check subcommand
# ---------------------------------------------------------------------------


def reports_for_pair(d, theorem, seed, tol):
    """Reports for one (density, theorem) pair, or a skip reason string."""
    n = d.n
    if theorem == "poincare_1d":
        if d.kind == "inverse_gamma_1d":
            f = radial_marginal(d).as_density1d()
            w = catalog_K(d)
        elif n == 1:
            f = full_line_density(d)
            w = _even_weight(catalog_K(d))
        else:
            f = radial_marginal(d).as_density1d()
            w = marginal_weight(d)
        include_linear = d.kind == "gaussian"
        corpus = corpus_1d(f.support, seed=seed, include_linear=include_linear)
        return check_poincare_1d(f, w, corpus, tol=tol)

    if theorem == "product":
        if d.kind == "inverse_gamma_1d":
            return "product factorization does not apply to the 1-D wealth entry"
        if n == 1:
            return "no angular factors in dimension 1"
        f_r = radial_marginal(d).as_density1d()
        factors = [f_r]
        weights = [marginal_weight(d)]
        for i in range(1, n - 1):
            factors.append(sin_power_density(n - 1 - i))
            weights.append(wmod.angular_weight_function(n - 1 - i, n))
        factors.append(uniform_angle_density())
        weights.append(wmod.angular_weight_function(n - 1, n))
        corpus = corpus_product([f.support for f in factors], seed=seed)
        return check_product(factors, weights, corpus, tol=tol)

    if theorem == "isotropic_Wstar":
        if d.kind == "inverse_gamma_1d" or n == 1:
            return "the composite weight needs the angular decomposition (n >= 2)"
        corpus = corpus_nd(n, seed=seed, scale=_corpus_scale(d))
        return check_isotropic_Wstar(d, corpus, marginal_weight(d), tol=tol)

    if theorem in ("refined_outside_ball", "hybrid"):
        if d.kind == "inverse_gamma_1d":
            return "tail condition applies to isotropic densities in n >= 2"
        if n == 1:
            return "tail condition is vacuous in dimension 1"
        K = catalog_K(d)
        try:
            R = wmod.critical_tail_radius(d, K)
        except wmod.WeightError as exc:
            return f"tail condition unsatisfiable: {exc}"
        if theorem == "refined_outside_ball":
            corpus = corpus_outside_ball(n, R, r_max=d.support_radius, seed=seed)
            return check_refined_outside_ball(d, K, R, corpus, tol=tol)
        corpus = corpus_nd(n, seed=seed, scale=_corpus_scale(d))
        return check_hybrid(d, marginal_weight(d), K, R, corpus, tol=tol)

    if theorem == "gaussian_anisotropic":
        if d.kind != "gaussian":
            return "anisotropic Gaussian check applies to Gaussian entries"
        V = d.param("sigma") * np.eye(n)
        corpus = corpus_anisotropic(V, seed=seed)
        return check_gaussian_anisotropic(V, np.zeros(n), corpus, tol=tol)

    raise ValueError(f"unknown theorem {theorem!r}")


def _report_rows(density_lbl, theorem, reports):
    rows = []
    for r in reports:
        rows.append([density_lbl, theorem, r.witness, f"{r.lhs:.12g}",
                     f"{r.rhs:.12g}", f"{r.ratio:.12g}", r.status,
                     "pass" if r.passed else "fail"])
    return rows


def cmd_check(args):
    d = parse_density_spec(args.density)
    tol = args.tol
    result = reports_for_pair(d, args.theorem, args.corpus_seed, tol)
    lbl = density_label(d)
    out_dir = Path(args.out)
    if isinstance(result, str):
        print(f"skipped: {result}")
        _write_json(out_dir / f"check_{args.theorem}_{_slug(lbl)}.json",
                    {"density": lbl, "theorem": args.theorem, "skipped": result})
        return 0
    payload = {"density": lbl, "theorem": args.theorem, "tol": tol,
               "corpus_seed": args.corpus_seed,
               "summary": summarize_reports(result),
               "reports": [r.to_dict() for r in result]}
    _write_json(out_dir / f"check_{args.theorem}_{_slug(lbl)}.json", payload)
    _write_csv(out_dir / f"check_{args.theorem}_{_slug(lbl)}.csv",
               ["density", "theorem", "witness", "lhs", "rhs", "ratio",
                "status", "verdict"],
               _report_rows(lbl, args.theorem, result))
    s = payload["summary"]
    print(f"{lbl} / {args.theorem}: {s['passed']} passed, {s['failed']} failed, "
          f"{s['rejected']} rejected, max ratio {s['max_ratio']:.9f}")
    return 0 if s["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# evolve subcommand
# ---------------------------------------------------------------------------


def _rate_constant_c(d):
    """Constant c with w = c K linking the marginal weight to the diffusion
    weight, used for the predicted chi-square rate 2/c."""
    if d.kind == "gaussian":
        return 1.0
    if d.kind == "cauchy_type":
        beta, n = d.param("beta"), d.n
        w0 = wmod.optimal_cauchy_weight(beta, n)
        return float(w0(0.0) * 2.0 * (beta - 1.0))
    if d.kind == "inverse_gamma_1d":
        return 1.0
    return None


def run_evolution(d, cells=400, t_final=10.0, dt=1e-3, eps=0.1,
                  perturbation="cosine", tail_mass=1e-12):
    solver = build_solver(d, catalog_K(d), cells=cells, tail_mass=tail_mass)
    state = perturbed_initial_state(solver, perturbation, eps=eps)
    trace = solver.evolve(state, t_final, dt)
    return solver, trace


def trace_rows(trace):
    rows = []
    for k in range(len(trace)):
        rows.append([f"{trace.times[k]:.10g}", f"{trace.theta_chi2[k]:.12g}",
                     f"{trace.theta_entropy[k]:.12g}",
                     f"{trace.hellinger2[k]:.12g}",
                     f"{trace.dissipation_chi2[k]:.12g}",
                     f"{trace.dissipation_entropy[k]:.12g}",
                     f"{trace.mass[k]:.14g}", f"{trace.l1_dist[k]:.12g}"])
    return rows


def cmd_evolve(args):
    d = parse_density_spec(args.density)
    solver, trace = run_evolution(d, cells=args.cells, t_final=args.t_final,
                                  dt=args.dt, eps=args.eps,
                                  perturbation=args.perturbation)
    lbl = density_label(d)
    out_dir = Path(args.out)
    _write_csv(out_dir / f"trace_{_slug(lbl)}.csv",
               ["t", "theta_chi2", "theta_entropy", "hellinger2",
                "I_theta_chi2", "I_theta_entropy", "mass", "l1_dist"],
               trace_rows(trace))
    c = _rate_constant_c(d)
    summary = {
        "density": lbl, "cells": args.cells, "dt": args.dt,
        "t_final": args.t_final, "perturbation": args.perturbation,
        "eps": args.eps, "fitted_chi2_rate": trace.fitted_rate,
        "rate_bound_2_over_c": (2.0 / c if c else None),
        "mass_drift": float(abs(trace.mass[-1] - trace.mass[0]) / trace.mass[0]),
        "monotone_chi2": bool(np.all(np.diff(trace.theta_chi2) <= 1e-9)),
        "monotone_hellinger2": bool(np.all(np.diff(trace.hellinger2) <= 1e-9)),
    }
    if c is not None:
        summary["hellinger_decay"] = verify_hellinger_decay(trace, c)
    _write_json(out_dir / f"rates_{_slug(lbl)}.json", summary)
    print(f"{lbl}: fitted chi2 rate {trace.fitted_rate}, "
          f"bound {summary['rate_bound_2_over_c']}")
    ok = summary["monotone_chi2"] and summary["monotone_hellinger2"]
    if c is not None and trace.fitted_rate is not None:
        ok = ok and trace.fitted_rate >= 0.95 * (2.0 / c)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# run subcommand (full experiment)
# ---------------------------------------------------------------------------


def run_experiment(config, out_dir):
    """Execute the full density x theorem matrix plus evolutions.

    Returns (exit_code, manifest_files, summary_lines).  Inapplicable
    pairs are recorded with explicit skip reasons; partial failures do not
    stop the run.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(config.get("corpus_seed", 2024))
    tol = float(config.get("tolerances", {}).get("ratio_tol", 1e-6))
    densities = [parse_density_spec(s) for s in config["densities"]]
    theorems = list(config.get("theorems", THEOREMS))
    files = []
    summary_rows = []
    any_failed = False
    all_reports_csv = []

    # weight CSVs and the growth-exponent observational statistic
    growth_stats = []
    for d in densities:
        lbl = density_label(d)
        K = catalog_K(d)
        hi = d.support_radius if np.isfinite(d.support_radius) else 6.0
        rho = np.linspace(hi * 0.02, hi * 0.98, 25)
        rows = []
        for r, kc, kq in zip(rho, K(rho), _quadrature_weight_column(d, rho)):
            rel = abs(kq - kc) / abs(kc) if kc else 0.0
            rows.append([f"{r:.12g}", f"{kc:.16g}", f"{kq:.16g}",
                         f"{rel:.3e}", lbl])
        files.append(_write_csv(out_dir / f"weights_{_slug(lbl)}.csv",
                                ["rho", "K_closed", "K_quadrature", "rel_err",
                                 "density"], rows))
        if not np.isfinite(d.support_radius) and d.kind != "inverse_gamma_1d":
            # log-log growth exponent of K at large radius (conjectured in [0, 2])
            r1, r2 = 20.0, 40.0
            p = math.log(float(K(r2)) / float(K(r1))) / math.log(r2 / r1)
            growth_stats.append({"density": lbl, "exponent": p})

    for d in densities:
        lbl = density_label(d)
        for theorem in theorems:
            if theorem == "gaussian_anisotropic":
                continue  # handled from configured covariance list below
            result = reports_for_pair(d, theorem, seed, tol)
            if isinstance(result, str):
                summary_rows.append((lbl, theorem, "skipped", result))
                continue
            s = summarize_reports(result)
            payload = {"density": lbl, "theorem": theorem, "tol": tol,
                       "corpus_seed": seed, "summary": s,
                       "reports": [r.to_dict() for r in result]}
            files.append(_write_json(
                out_dir / f"check_{theorem}_{_slug(lbl)}.json", payload))
            all_reports_csv.extend(_report_rows(lbl, theorem, result))
            verdict = "pass" if s["failed"] == 0 else "FAIL"
            any_failed |= s["failed"] > 0
            summary_rows.append(
                (lbl, theorem, verdict,
                 f"{s['passed']}/{s['total']} max ratio {s['max_ratio']:.8f}"))

    if "gaussian_anisotropic" in theorems:
        for idx, spec in enumerate(config.get("anisotropic_covariances", [])):
            V = np.asarray(spec["V"], dtype=float)
            u = np.asarray(spec.get("u", np.zeros(len(V))), dtype=float)
            corpus = corpus_anisotropic(V, u, seed=seed)
            reports = check_gaussian_anisotropic(V, u, corpus, tol=tol)
            s = summarize_reports(reports)
            lbl = f"gaussianV{idx}"
            payload = {"covariance": _plain(V), "mean": _plain(u),
                       "theorem": "gaussian_anisotropic", "tol": tol,
                       "corpus_seed": seed, "summary": s,
                       "reports": [r.to_dict() for r in reports]}
            files.append(_write_json(
                out_dir / f"check_gaussian_anisotropic_{lbl}.json", payload))
            all_reports_csv.extend(_report_rows(lbl, "gaussian_anisotropic", reports))
            verdict = "pass" if s["failed"] == 0 else "FAIL"
            any_failed |= s["failed"] > 0
            summary_rows.append(
                (lbl, "gaussian_anisotropic", verdict,
                 f"{s['passed']}/{s['total']} max ratio {s['max_ratio']:.8f}"))

    files.append(_write_csv(out_dir / "check_summary.csv",
                            ["density", "theorem", "witness", "lhs", "rhs",
                             "ratio", "status", "verdict"], all_reports_csv))

    solver_cfg = config.get("solver", {})
    for spec in config.get("evolve_densities", []):
        d = parse_density_spec(spec)
        lbl = density_label(d)
        solver, trace = run_evolution(
            d, cells=int(solver_cfg.get("cells", 400)),
            t_final=float(solver_cfg.get("t_final", 10.0)),
            dt=float(solver_cfg.get("dt", 1e-3)),
            eps=float(solver_cfg.get("eps", 0.1)),
            perturbation=solver_cfg.get("perturbation", "cosine"),
            tail_mass=float(solver_cfg.get("truncation_mass", 1e-12)))
        files.append(_write_csv(
            out_dir / f"trace_{_slug(lbl)}.csv",
            ["t", "theta_chi2", "theta_entropy", "hellinger2", "I_theta_chi2",
             "I_theta_entropy", "mass", "l1_dist"], trace_rows(trace)))
        c = _rate_constant_c(d)
        payload = {"density": lbl, "fitted_chi2_rate": trace.fitted_rate,
                   "rate_bound_2_over_c": 2.0 / c if c else None,
                   "hellinger_decay": verify_hellinger_decay(trace, c) if c else None,
                   "mass_drift": float(abs(trace.mass[-1] - trace.mass[0])
                                       / trace.mass[0])}
        files.append(_write_json(out_dir / f"rates_{_slug(lbl)}.json", payload))
        # no bound is checked without a rate constant or a fitted rate
        if c is None:
            verdict, detail = "unchecked", "no rate bound for this density"
        elif trace.fitted_rate is None:
            verdict, detail = "unchecked", "too few samples in the fit window for a rate"
        else:
            bound = 0.95 * 2.0 / c
            verdict = "pass" if trace.fitted_rate >= bound else "FAIL"
            detail = f"rate {trace.fitted_rate:.4f} >= {bound:.4f}"
        any_failed |= verdict == "FAIL"
        summary_rows.append((lbl, "relaxation_rate", verdict, detail))

    # markdown summary
    lines = ["# Verification summary", "",
             "| density | check | verdict | detail |",
             "|---|---|---|---|"]
    for row in summary_rows:
        lines.append("| " + " | ".join(str(x) for x in row) + " |")
    if growth_stats:
        lines += ["", "## Observed growth exponents of the diffusion weight",
                  "", "| density | exponent |", "|---|---|"]
        for g in growth_stats:
            lines.append(f"| {g['density']} | {g['exponent']:.4f} |")
        lines += ["", "The conjectured range is [0, 2]; this is logged as an",
                  "observational statistic, not asserted."]
    summary_path = out_dir / "summary.md"
    summary_path.write_text("\n".join(lines) + "\n")
    files.append(summary_path)

    manifest = {
        "config": _plain(config),
        "files": sorted(
            ({"path": str(Path(f).relative_to(out_dir)), "sha256": _sha256(f)}
             for f in {str(f) for f in files}),
            key=lambda e: e["path"]),
    }
    _write_json(out_dir / "manifest.json", manifest)
    _write_json(out_dir / "metadata.json",
                {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                 "argv": sys.argv})
    return (1 if any_failed else 0), files, summary_rows


def cmd_run(args):
    if args.config:
        config = json.loads(Path(args.config).read_text())
    else:
        config = dict(DEFAULT_CONFIG)
    if args.seed is not None:
        config["corpus_seed"] = args.seed
    out_dir = args.out or config.get("output_dir", "out")
    try:
        code, files, rows = run_experiment(config, out_dir)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(" | ".join(str(x) for x in row))
    print(f"wrote {len(files)} files to {out_dir}")
    return code


def cmd_report(args):
    out_dir = Path(args.out)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    bad = []
    for entry in manifest["files"]:
        p = out_dir / entry["path"]
        if not p.exists() or _sha256(p) != entry["sha256"]:
            bad.append(entry["path"])
    print((out_dir / "summary.md").read_text())
    if bad:
        print(f"WARNING: {len(bad)} files differ from the manifest: {bad}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="isofp",
        description="Diffusion weights, weighted Poincare inequalities and "
                    "Fokker-Planck relaxation for isotropic densities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="closed form vs quadrature weight CSV")
    p.add_argument("--density", required=True,
                   help="e.g. cauchy:beta=3,n=2")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("check", help="verify one inequality for one density")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--density", required=True)
    p.add_argument("--corpus-seed", type=int, default=2024)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve", help="run the radial Fokker-Planck solver")
    p.add_argument("--density", required=True)
    p.add_argument("--perturbation", default="cosine")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--cells", type=int, default=400)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("run", help="full experiment from a JSON config")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="print the summary and verify hashes")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
