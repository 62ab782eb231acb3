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
import hashlib
import io
import json
import math
import os
import pickle
import signal
import sys
import time
from pathlib import Path
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage

import numpy as np

from . import weights as wmod
from .corpus import (corpus_1d, corpus_anisotropic, corpus_nd,
                     corpus_outside_ball, corpus_product)
from .densities import (full_line_density, parse_density_spec,
                        radial_marginal, sin_power_density,
                        uniform_angle_density, closed_form_weight,
                        density_label)
from .fpsolver import (PERTURBATIONS, SolverError, TruncationError,
                       build_solver, check_march, check_perturbation,
                       perturbed_initial_state, verify_hellinger_decay)
from .inequality import (DEFAULT_RATIO_TOL, check_gaussian_anisotropic,
                         check_hybrid, check_isotropic_Wstar, check_poincare_1d,
                         check_product, check_refined_outside_ball,
                         covariance_eigenvalues, summarize_reports)

THEOREMS = ("poincare_1d", "product", "isotropic_Wstar",
            "refined_outside_ball", "hybrid", "gaussian_anisotropic")

# the one statement of every run default: ``run`` reads a key missing from
# its config here, and ``check`` and ``evolve`` take their flag defaults from it
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
    "tolerances": {"ratio_tol": DEFAULT_RATIO_TOL},
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
SOLVER_DEFAULTS = DEFAULT_CONFIG["solver"]


# ---------------------------------------------------------------------------
# Weight resolution for catalog densities
# ---------------------------------------------------------------------------


def _even_weight(K):
    """The weight x -> K(|x|) on the line, for an isotropic entry with n = 1;
    it kinks at 0 and at +-b for every breakpoint b of K."""
    bp = K.breakpoints
    return wmod.WeightFunction(lambda x: K(np.abs(x)),
                               tuple(sorted({0.0, *bp, *(-b for b in bp)})))


def marginal_weight(d):
    """One-dimensional Poincare weight of the radial marginal."""
    if d.kind == "cauchy_type":
        return wmod.optimal_cauchy_weight(d.param("beta"), d.n)
    if d.kind == "barenblatt":
        return wmod.optimal_barenblatt_weight(d.param("p"), d.n, d.param("a"))
    if d.kind == "exponential_type":
        return wmod.gamma_radial_weight(d.param("beta"))
    if d.kind == "inverse_gamma_1d":
        return closed_form_weight(d)
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


def _json_text(payload):
    return json.dumps(_plain(payload), sort_keys=True, indent=1) + "\n"


def _csv_text(header, rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _write_json(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    return path


_write_csv = _write_json  # perfbench/spans.py wraps both names


def _write_files(out_dir, texts):
    """Write each text of {file name: text} into ``out_dir``; the paths written."""
    return [(_write_json if name.endswith(".json") else _write_csv)(Path(out_dir) / name, text)
            for name, text in texts.items()]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# weights subcommand
# ---------------------------------------------------------------------------


WEIGHT_HEADER = ["rho", "K_closed", "K_quadrature", "rel_err", "density"]


def _weight_table(d, edge, points):
    """The ``weights_*.csv`` name and rows of one density: the catalog K
    against K by quadrature, one call each for the whole array, at
    ``points`` radii from ``edge`` to 1 - ``edge`` of the support, or of
    [0, 6] if it is unbounded; rel_err is the absolute error where K_closed
    is 0."""
    hi = d.support_radius if np.isfinite(d.support_radius) else 6.0
    rho = np.linspace(hi * edge, hi * (1.0 - edge), points)
    lbl = density_label(d)
    rows = []
    for r, kc, kq in zip(rho, closed_form_weight(d)(rho), wmod.weight_from_density(d, rho)):
        rel = abs(kq - kc) / abs(kc) if kc != 0 else abs(kq)
        rows.append([f"{r:.12g}", f"{kc:.16g}", f"{kq:.16g}", f"{rel:.3e}", lbl])
    return f"weights_{_slug(lbl)}.csv", rows


def cmd_weights(args):
    d = parse_density_spec(args.density)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, not {args.points}")
    name, rows = _weight_table(d, 0.01, args.points)
    out = _write_csv(Path(args.out) / name, _csv_text(WEIGHT_HEADER, rows))
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
    """Reports for one (density, theorem) pair, or a skip reason string.

    A density outside the hypotheses of a weight the check needs (the
    weight raises :class:`~isofp.weights.WeightError`) is a skip reason."""
    try:
        return _pair_reports(d, theorem, seed, tol)
    except wmod.WeightError as exc:
        return f"weight hypothesis not met: {exc}"


def _pair_reports(d, theorem, seed, tol):
    n = d.n
    if theorem == "poincare_1d":
        if n == 1 and d.kind != "inverse_gamma_1d":
            f = full_line_density(d)
            w = _even_weight(closed_form_weight(d))
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
        K = closed_form_weight(d)
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
        return check_gaussian_anisotropic(V, corpus_anisotropic(V, seed=seed), tol=tol)

    raise ValueError(f"unknown theorem {theorem!r}")


REPORT_HEADER = ["density", "theorem", "witness", "lhs", "rhs", "ratio", "status",
                 "verdict"]


def _check_file(theorem, lbl):
    return f"check_{theorem}_{_slug(lbl)}.json"


def _check_artifacts(lbl, head, reports):
    """The (verdict, detail) of one check's reports, its ``check_*.json``
    as {name: text} and its check_summary.csv rows.  The JSON holds the
    items of ``head``, which name the theorem, the tolerance and the corpus
    seed, then the summary and the reports.  The verdict is FAIL if any
    report fails and pass otherwise."""
    s = summarize_reports(reports)
    payload = dict(head, summary=s, reports=[r.to_dict() for r in reports])
    rows = [[lbl, head["theorem"], r.witness, f"{r.lhs:.12g}", f"{r.rhs:.12g}",
             f"{r.ratio:.12g}", r.status, "pass" if r.passed else "fail"] for r in reports]
    return (("pass" if s["failed"] == 0 else "FAIL",
             f"{s['passed']}/{s['total']} max ratio {s['max_ratio']:.8f}"),
            {_check_file(head["theorem"], lbl): _json_text(payload)}, rows)


def check_task(d, theorem, seed, tol):
    """``theorem`` on the density ``d``, as :func:`_check_artifacts` gives it;
    a skip is ("skipped", reason), with no file and no row."""
    lbl = density_label(d)
    reports = reports_for_pair(d, theorem, seed, tol)
    if isinstance(reports, str):
        return ("skipped", reports), {}, []
    return _check_artifacts(lbl, {"density": lbl, "theorem": theorem, "tol": tol,
                                  "corpus_seed": seed}, reports)


def anisotropic_task(lbl, V, u, seed, tol):
    """The anisotropic Gaussian check on covariance V, as
    :func:`_check_artifacts` gives it, with the mean u recorded beside V."""
    reports = check_gaussian_anisotropic(V, corpus_anisotropic(V, seed=seed), tol=tol)
    return _check_artifacts(lbl, {"covariance": _plain(V), "mean": _plain(u), "tol": tol,
                                  "corpus_seed": seed, "theorem": "gaussian_anisotropic"}, reports)


def check_ratio_tol(tol):
    """Raise ValueError unless the ratio tolerance is finite and nonnegative:
    a nan tolerance would leave every report inconclusive, an infinite one
    pass it."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"the ratio tolerance must be finite and nonnegative, got {tol}")


def cmd_check(args):
    check_ratio_tol(args.tol)
    d = parse_density_spec(args.density)
    lbl = density_label(d)
    reports = reports_for_pair(d, args.theorem, args.corpus_seed, args.tol)
    path = Path(args.out) / _check_file(args.theorem, lbl)
    if isinstance(reports, str):
        print(f"skipped: {reports}")
        _write_json(path, _json_text({"density": lbl, "theorem": args.theorem, "skipped": reports}))
        return 0
    head = dict(density=lbl, theorem=args.theorem, tol=args.tol, corpus_seed=args.corpus_seed)
    (verdict, _), texts, rows = _check_artifacts(lbl, head, reports)
    _write_files(args.out, texts)
    _write_csv(path.with_suffix(".csv"), _csv_text(REPORT_HEADER, rows))
    s = summarize_reports(reports)
    print(f"{lbl} / {args.theorem}: {s['passed']} passed, {s['failed']} failed, "
          f"{s['rejected']} rejected, max ratio {s['max_ratio']:.9f}")
    return 0 if verdict == "pass" else 1


# ---------------------------------------------------------------------------
# evolve subcommand
# ---------------------------------------------------------------------------


def _rate_constant_c(d):
    """Constant c with w = c K linking the marginal weight to the diffusion
    weight, used for the predicted chi-square rate 2/c."""
    if d.kind in ("gaussian", "inverse_gamma_1d"):
        return 1.0
    if d.kind == "cauchy_type":
        beta = d.param("beta")
        return float(wmod.optimal_cauchy_weight(beta, d.n)(0.0) * 2.0 * (beta - 1.0))
    return None


def evolution_settings(solver_cfg):
    """The march (solver settings) of :func:`run_evolution` from a config's
    ``solver`` block, each missing key taken from ``DEFAULT_CONFIG``; other
    keys are ignored."""
    s = {**SOLVER_DEFAULTS, **solver_cfg}
    return dict(cells=int(s["cells"]), t_final=float(s["t_final"]), dt=float(s["dt"]),
                eps=float(s["eps"]), perturbation=s["perturbation"],
                tail_mass=float(s["truncation_mass"]))


def run_evolution(d, march):
    solver = build_solver(d, closed_form_weight(d), cells=march["cells"],
                          tail_mass=march["tail_mass"])
    state = perturbed_initial_state(solver, march["perturbation"], eps=march["eps"])
    return solver.evolve(state, march["t_final"], march["dt"])


# (DecayTrace field, trace_*.csv header, format) of each trace column
TRACE_COLUMNS = [("times", "t", ".10g"), ("theta_chi2", "theta_chi2", ".12g"),
                 ("theta_entropy", "theta_entropy", ".12g"), ("hellinger2", "hellinger2", ".12g"),
                 ("dissipation_chi2", "I_theta_chi2", ".12g"),
                 ("dissipation_entropy", "I_theta_entropy", ".12g"),
                 ("mass", "mass", ".14g"), ("l1_dist", "l1_dist", ".12g")]


def _trace_csv(trace):
    columns = [[format(v, spec) for v in getattr(trace, name)]
               for name, _, spec in TRACE_COLUMNS]
    return _csv_text([header for _, header, _ in TRACE_COLUMNS], zip(*columns))


def _evolution_artifacts(d, trace, march):
    """The (verdict, detail) of one evolution run with the solver settings
    ``march``, and its ``trace_*.csv`` and ``rates_*.json`` as {name: text}.

    The verdict is FAIL if chi2 or the squared Hellinger distance rises by
    more than 1e-9 between two samples, or if the fitted rate is below
    0.95 * 2/c; otherwise it is ``unchecked`` without a rate constant c or
    a fitted rate, and pass with both."""
    c = _rate_constant_c(d)
    rate = trace.fitted_rate
    payload = {"density": density_label(d),
               **{k: march[k] for k in ("cells", "dt", "t_final", "perturbation", "eps")},
               "fitted_chi2_rate": rate,
               "rate_bound_2_over_c": 2.0 / c if c else None,
               "hellinger_decay": verify_hellinger_decay(trace, c) if c else None,
               "mass_drift": float(abs(trace.mass[-1] - trace.mass[0]) / trace.mass[0]),
               "monotone_chi2": bool(np.all(np.diff(trace.theta_chi2) <= 1e-9)),
               "monotone_hellinger2": bool(np.all(np.diff(trace.hellinger2) <= 1e-9))}
    rising = [k for k in ("chi2", "hellinger2") if not payload[f"monotone_{k}"]]
    if rising:
        outcome = ("FAIL", " and ".join(rising) + " rises by more than 1e-9")
    elif c is None:
        outcome = ("unchecked", "no rate bound for this density")
    elif rate is None:
        outcome = ("unchecked", "too few samples in the fit window for a rate")
    else:
        bound = 0.95 * 2.0 / c
        ok = rate >= bound
        outcome = ("pass" if ok else "FAIL",
                   f"rate {rate:.4f} {'>=' if ok else '<'} {bound:.4f}")
    slug = _slug(density_label(d))
    return outcome, {f"trace_{slug}.csv": _trace_csv(trace),
                     f"rates_{slug}.json": _json_text(payload)}


def evolution_task(d, march):
    """One evolution as :func:`_evolution_artifacts` gives it, and no
    check_summary.csv row; a density without a solver (TruncationError, or
    WeightError: no closed-form K) is unchecked, with no file."""
    try:
        trace = run_evolution(d, march)
    except (TruncationError, wmod.WeightError) as exc:
        return ("unchecked", f"no solver: {exc}"), {}, []
    return (*_evolution_artifacts(d, trace, march), [])


def cmd_evolve(args):
    d = parse_density_spec(args.density)
    march = evolution_settings(vars(args))  # the flags, and the default truncation mass
    trace = run_evolution(d, march)
    (verdict, _), texts = _evolution_artifacts(d, trace, march)
    _write_files(args.out, texts)
    c = _rate_constant_c(d)
    print(f"{density_label(d)}: fitted chi2 rate {trace.fitted_rate}, "
          f"bound {2.0 / c if c else None}")
    return 1 if verdict == "FAIL" else 0


# ---------------------------------------------------------------------------
# run subcommand (full experiment)
# ---------------------------------------------------------------------------


def _timed(fn, *args):
    """fn(*args), with its wall and CPU seconds and the pid that ran it."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - t0, time.process_time() - c0, os.getpid()


def _portable(exc):
    """``exc`` if it survives pickling, else its message in its nearest builtin class."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return next(c for c in type(exc).__mro__ if c.__module__ == "builtins")(str(exc))


def _in_workers(tasks, order):
    """``[_timed(*task) for task in tasks]`` in forked children, one per CPU of
    the affinity mask up to len(tasks), and the child count.  The children
    read task indices in ``order`` from one shared pipe; each stops at its first
    task that raises and pickles [(index, _timed result or exception)] into a
    pipe of its own.  The parent reaps every child, killing them first if it
    raises itself; then it raises the exception of the lowest-index task that raised."""
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    fds, pids, data = list(os.pipe()), [], []  # the queue, then each child's pipe
    try:
        for _ in range(workers):
            fds += os.pipe()
            if (pid := os.fork()) == 0:
                done = []
                try:
                    os.close(fds[1])
                    while index := os.read(fds[0], 4):
                        i = int.from_bytes(index, "little")
                        try:
                            done.append((i, _timed(*tasks[i])))
                        except Exception as exc:
                            done.append((i, _portable(exc)))
                            break
                    with open(fds[-1], "wb") as fh:
                        pickle.dump(done, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())
        os.close(fds.pop(0))
        with open(fds.pop(0), "wb") as fh:  # closing it ends the queue
            fh.write(b"".join(i.to_bytes(4, "little") for i in order))
        for _ in pids:
            with open(fds.pop(0), "rb") as fh:
                data.append(fh.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        status = [os.waitpid(pid, 0)[1] for pid in pids]
    for code in filter(None, status):
        raise RuntimeError(f"a worker ended with wait status {code} before it reported")
    done = dict(item for blob in data for item in pickle.loads(blob))
    for i in sorted(done):
        if isinstance(done[i], BaseException):
            raise done[i]
    return [done[i] for i in range(len(tasks))], workers


def run_experiment(config, out_dir):
    """Execute the full density x theorem matrix plus evolutions.

    Returns (exit_code, manifest_files, summary_lines).  Inapplicable
    pairs are recorded with explicit skip reasons; partial failures do not
    stop the run.  Files are written in config order, whatever the worker count,
    once every task has run, so a run that raises leaves no file behind.
    """
    start = time.perf_counter()
    out_dir = Path(out_dir)
    seed = int(config.get("corpus_seed", DEFAULT_CONFIG["corpus_seed"]))
    tol = float(config.get("tolerances", {}).get("ratio_tol", DEFAULT_RATIO_TOL))
    check_ratio_tol(tol)
    if "densities" not in config:
        raise ValueError("config: missing required key 'densities'")
    densities = [parse_density_spec(s) for s in config["densities"]]
    theorems = list(config.get("theorems", THEOREMS))
    # densities (each with its closed-form K, which the weight CSVs compare),
    # theorems, covariances and the march are checked before any work is done
    for d in densities:
        closed_form_weight(d)
    for theorem in theorems:
        if theorem not in THEOREMS:
            raise ValueError(f"theorems: unknown theorem {theorem!r}; "
                             f"allowed: {', '.join(THEOREMS)}")
    evolution = evolution_settings(config.get("solver", {}))
    check_perturbation(evolution["perturbation"], evolution["eps"])
    check_march(evolution["t_final"], evolution["dt"])
    # (label, check or relaxation_rate, task) of each check, then evolution
    jobs = [(density_label(d), theorem, (check_task, d, theorem, seed, tol))
            for d in densities for theorem in theorems
            if theorem != "gaussian_anisotropic"]
    if "gaussian_anisotropic" in theorems:
        for idx, spec in enumerate(config.get("anisotropic_covariances", [])):
            where = f"anisotropic_covariances[{idx}]"
            if not isinstance(spec, dict) or "V" not in spec:
                raise ValueError(f"{where}: missing required key 'V'")
            try:
                V = np.asarray(spec["V"], dtype=float)
                covariance_eigenvalues(V)
                u = np.asarray(spec.get("u", np.zeros(len(V))), dtype=float)
                if u.shape != (len(V),) or not np.all(np.isfinite(u)):
                    raise ValueError(f"u must be a finite vector of {len(V)} components")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            jobs.append((f"gaussianV{idx}", "gaussian_anisotropic",
                         (anisotropic_task, f"gaussianV{idx}", V, u, seed, tol)))
    jobs += [(density_label(d), "relaxation_rate", (evolution_task, d, evolution))
             for d in map(parse_density_spec, config.get("evolve_densities", []))]
    # weight CSVs and the growth-exponent observational statistic
    weight_tables, growth_stats = [], []
    for d in densities:
        weight_tables.append(_weight_table(d, 0.02, 25))
        if not np.isfinite(d.support_radius) and d.kind != "inverse_gamma_1d":
            # log-log growth exponent of K at large radius (conjectured in [0, 2])
            K = closed_form_weight(d)
            r1, r2 = 20.0, 40.0
            p = math.log(float(K(r2)) / float(K(r1))) / math.log(r2 / r1)
            growth_stats.append({"density": density_label(d), "exponent": p})

    # a task that raises fails the run before any file is written; the longest
    # (evolutions) run first
    done, workers = _in_workers([task for *_, task in jobs], sorted(
        range(len(jobs)), key=lambda i: jobs[i][1] != "relaxation_rate"))
    files = [_write_csv(out_dir / name, _csv_text(WEIGHT_HEADER, rows))
             for name, rows in weight_tables]
    summary_rows, all_reports_csv = [], []
    for (lbl, task, _), ((outcome, texts, report_rows), *_) in zip(jobs, done):
        files += _write_files(out_dir, texts)
        all_reports_csv += report_rows
        summary_rows.append((lbl, task, *outcome))
    files.append(_write_csv(out_dir / "check_summary.csv",
                            _csv_text(REPORT_HEADER, all_reports_csv)))

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
    _write_json(out_dir / "manifest.json", _json_text(manifest))
    _write_json(out_dir / "metadata.json", _json_text(
        {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
         "argv": sys.argv}))
    peak_kb = max(getrusage(who).ru_maxrss for who in (RUSAGE_SELF, RUSAGE_CHILDREN))
    _write_json(out_dir / "profile.json", _json_text({  # timings stay out of the manifest too
        "tasks": [{"name": f"{job[0]} {job[1]}", "wall_s": wall, "cpu_s": cpu, "pid": pid}
                  for job, (_, wall, cpu, pid) in zip(jobs, done)],
        "workers": workers, "wall_s": time.perf_counter() - start,
        "peak_rss_mb": peak_kb / 1024.0}))
    return int(any(row[2] == "FAIL" for row in summary_rows)), files, summary_rows


def cmd_run(args):
    if args.config:
        config = json.loads(Path(args.config).read_text())
    else:
        config = dict(DEFAULT_CONFIG)
    if args.seed is not None:
        config["corpus_seed"] = args.seed
    out_dir = args.out or config.get("output_dir", "out")
    code, files, rows = run_experiment(config, out_dir)
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
    p.add_argument("--corpus-seed", type=int, default=DEFAULT_CONFIG["corpus_seed"])
    p.add_argument("--tol", type=float, default=DEFAULT_RATIO_TOL)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve", help="run the radial Fokker-Planck solver")
    p.add_argument("--density", required=True)
    p.add_argument("--perturbation", default=SOLVER_DEFAULTS["perturbation"],
                   choices=sorted(PERTURBATIONS))
    p.add_argument("--eps", type=float, default=SOLVER_DEFAULTS["eps"])
    p.add_argument("--cells", type=int, default=SOLVER_DEFAULTS["cells"])
    p.add_argument("--t-final", type=float, default=SOLVER_DEFAULTS["t_final"])
    p.add_argument("--dt", type=float, default=SOLVER_DEFAULTS["dt"])
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
    except (ValueError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
