"""Layered benchmark of ``isofp run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an isofp checkout: isofp is imported from ``src/``.
Every run of ``isofp.cli.run_experiment`` gets a fresh child process (one
at a time, BLAS pinned to one thread).  ``--trace 0`` repeats runs for
about S seconds and reports the medians of the end-to-end metrics;
``--trace 1`` makes one traced run, compares it with the untraced runs
recorded for the same source and seed, and reports the per-layer metrics.
Every run's outputs are checked against ``reference/``.  The last line of
standard output is one JSON object; scratch files go to ``.perfbench_work/``.
See README.md for the workloads and metrics.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RATIO_TOL = 1e-6
BLAS_THREADS = 1
SETUP_SAMPLES = 5
OVERRUN = 0.1  # share of --seconds by which the last run may end late
BUDGET_S = 165.0  # every child must end within this many seconds of the start

THEOREMS = ("poincare_1d", "product", "isotropic_Wstar", "refined_outside_ball",
            "hybrid", "gaussian_anisotropic")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SOLVER = {"cells": 400, "t_final": 10.0, "dt": 1e-3, "truncation_mass": 1e-12,
          "eps": 0.1, "perturbation": "cosine"}
ANISOTROPIC = [
    {"V": [[1.0, 0.0], [0.0, 1.0]], "u": [0.0, 0.0]},
    {"V": [[1.0, 0.0], [0.0, 4.0]], "u": [0.0, 0.0]},
    {"V": [[1.75, 1.299038105676658], [1.299038105676658, 3.25]], "u": [0.3, -0.2]},
]
WORKLOADS = {
    "n3-grid": {
        "densities": ["cauchy:beta=4,n=3"],
        "theorems": ["product", "isotropic_Wstar", "refined_outside_ball", "hybrid"],
        "evolve_densities": [],
    },
    "line-relax": {
        "densities": ["gaussian:sigma=1,n=1", "gaussian:sigma=1,n=3",
                      "inverse_gamma:mu=2,n=1"],
        "theorems": ["poincare_1d"],
        "evolve_densities": ["gaussian:sigma=1,n=1", "cauchy:beta=4,n=1",
                             "inverse_gamma:mu=2,n=1", "cauchy:beta=4,n=3"],
    },
    "n2-mixed": {
        "densities": ["cauchy:beta=3,n=2", "exponential:beta=1,n=2",
                      "barenblatt:a=1,p=2,n=2"],
        "theorems": list(THEOREMS),
        "anisotropic_covariances": ANISOTROPIC,
        "evolve_densities": [],
    },
}

# Corpus seeds with a stored reference, the run default 2024 first and the
# held-out seed last.  For the grid workloads they were found by scanning
# upward from 2024 for seeds that give the same product mesh and radial
# grid sizes as 2024 (other seeds change the n3 product mesh by up to 20%),
# so the seed changes the random draws of corpus members but not the amount
# of work.  line-relax builds no grid.
REFERENCE_SEEDS = {
    "n3-grid": (2024, 2047, 2077, 2079),
    "line-relax": (2024, 2025, 2026, 2027),
    "n2-mixed": (2024, 2026, 2176, 2241),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def make_config(workload, corpus_seed):
    config = dict(WORKLOADS[workload])
    config.update(corpus_seed=corpus_seed, tolerances={"ratio_tol": RATIO_TOL},
                  solver=dict(SOLVER))
    return config


def corpus_seed_for(workload, seed):
    """Each benchmark seed selects one corpus seed that has a stored reference."""
    seeds = REFERENCE_SEEDS[workload]
    return seeds[seed % len(seeds)]


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_files():
    return sorted((SRC / "isofp").glob("*.py"))


def source_hash():
    h = hashlib.sha256()
    for path in source_files():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": source_hash(),
    }


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Child:
    """Outcome of one child process: its result JSON, rusage and out dir."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.result = {}
        self.error = None
        self.setup_s = None
        self.peak_rss_mb = None


def _wait(pid, deadline):
    """(status, rusage, timed out) of a child, killed once past ``deadline``."""
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage, False
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return status, usage, True
        time.sleep(0.02)


def run_child(config, tag, trace, deadline, spans_path=""):
    """Run child.py once and wait for it; kill it if it passes ``deadline``."""
    WORK.mkdir(exist_ok=True)
    out_dir = WORK / f"out-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    config_path = WORK / f"config-{tag}.json"
    config_path.write_text(json.dumps(config))
    result_path = WORK / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    child = Child(out_dir)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config_path),
           str(out_dir), str(result_path), trace, str(spans_path)]
    with open(WORK / f"stderr-{tag}.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            status, usage, timed_out = _wait(proc.pid, deadline)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        child.error = "timed out"
    if child.error is None and proc.returncode != 0:
        child.error = f"exit code {proc.returncode}: " + (
            WORK / f"stderr-{tag}.txt").read_text(errors="replace")[-2000:]
    if child.error is None:
        child.result = json.loads(result_path.read_text())
        child.setup_s = child.result["ready_monotonic"] - start
        child.peak_rss_mb = usage.ru_maxrss / 1024.0
    return child


def manifest_hashes(out_dir):
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    return {e["path"]: e["sha256"] for e in manifest["files"]}


# ---------------------------------------------------------------------------
# Gate and metrics
# ---------------------------------------------------------------------------


class Tally:
    """Gated operations summed over the runs of one benchmark invocation."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def gate(self, child, label):
        got = gate.records(child.out_dir) if child.error is None else {}
        attempted, failures = gate.compare(got, self.reference, RATIO_TOL)
        self.attempted += attempted
        self.failed += len(failures)
        for key, reason in list(failures.items())[:5]:
            self.problems.append(f"{label}: {key}: {reason}")
        if child.error is not None:
            self.problems.append(f"{label}: {child.error}")
        elif child.result["exit_code"] != 0:
            self.problems.append(f"{label}: run_experiment exit code "
                                 f"{child.result['exit_code']}")
        elif not gate.negative_control(got, self.reference, RATIO_TOL):
            self.problems.append(f"{label}: negative control did not fail")
        return child.error is None


def record_path(kind, workload, corpus_seed, *code_files):
    """Per-checkout record of earlier runs with the same source and seed."""
    h = hashlib.sha256(source_hash().encode())
    for path in code_files:
        h.update(path.read_bytes())
    return WORK / f"{kind}-{workload}-{corpus_seed}-{h.hexdigest()[:16]}.json"


def note_untraced(child, path, tally):
    """Add an untraced run's wall time to ``path``; its manifest hashes must
    equal those of every earlier run recorded there."""
    hashes = manifest_hashes(child.out_dir)
    record = (json.loads(path.read_text()) if path.is_file()
              else {"hashes": hashes, "walls": []})
    if record["hashes"] != hashes:
        tally.problems.append(f"manifest hashes differ from the runs in {path.name}")
    record["walls"].append(child.result["wall_s"])
    path.write_text(json.dumps(record))
    return record


def measure_end_to_end(config, workload, corpus_seed, seconds, deadline, tally):
    """Fresh-process runs for about ``seconds``; samples of each metric.

    After the first run, a run starts only if, at the mean length of the
    runs so far, it ends within ``OVERRUN`` of ``seconds``."""
    untraced = record_path("untraced", workload, corpus_seed)
    runs = []
    start = time.monotonic()
    while True:
        lengths = [r.result["wall_s"] + r.setup_s for r in runs]
        if lengths and (time.monotonic() - start + statistics.mean(lengths)
                        > seconds * (1 + OVERRUN)):
            break
        if time.monotonic() + 1.5 * max(lengths, default=0.0) > deadline:
            break
        child = run_child(config, f"{workload}-{len(runs)}", "0", deadline)
        if not tally.gate(child, f"run {len(runs)}"):
            return None
        note_untraced(child, untraced, tally)
        runs.append(child)
    setups = [r.setup_s for r in runs]
    while len(setups) < SETUP_SAMPLES:
        child = run_child(config, f"{workload}-setup", "setup", deadline)
        if child.error is not None:
            tally.problems.append(f"set-up run: {child.error}")
            return None
        setups.append(child.setup_s)
    return {
        "setup_s": setups,
        "wall_s": [r.result["wall_s"] for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }


def layer_metrics(layers, overhead_s):
    """The per-layer metrics, 0 where a layer did not run."""
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for layer in ("densities.eval", "weights.K", "weights.P",
                  "corpus.eval", "corpus.grad"):
        put(f"{layer}.calls", get(layer, "calls"), "count")
        put(f"{layer}.points", get(layer, "count"), "count")
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    for layer in ("weights.tail_radius", "weights.composite", "fpsolver.build"):
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    put("quadrature.adaptive.calls", get("quadrature.adaptive", "calls"), "count")
    put("quadrature.adaptive.self_s", get("quadrature.adaptive", "self_s"), "s")
    put("quadrature.grid.builds", get("quadrature.grid", "calls"), "count")
    put("quadrature.grid.nodes", get("quadrature.grid", "nodes"), "count")
    put("quadrature.grid.bytes", get("quadrature.grid", "bytes"), "bytes")
    put("quadrature.grid.self_s", get("quadrature.grid", "self_s"), "s")
    put("corpus.build.members", get("corpus.build", "count"), "count")
    put("corpus.build.self_s", get("corpus.build", "self_s"), "s")
    for theorem in THEOREMS:
        layer = f"inequality.{theorem}"
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
        put(f"{layer}.reports", get(layer, "count"), "count")
        put(f"{layer}.peak_alloc_mb", get(layer, "peak_alloc_bytes") / 2 ** 20, "MB")
    for layer in ("fpsolver.step", "fpsolver.sample"):
        put(f"{layer}.calls", get(layer, "calls"), "count")
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    put("cli.artifacts.files", get("cli.artifacts", "files"), "count")
    put("cli.artifacts.bytes", get("cli.artifacts", "count"), "bytes")
    put("cli.artifacts.self_s", get("cli.artifacts", "self_s"), "s")
    put("isofp.src_lines", sum(len(p.read_text().splitlines())
                               for p in source_files()), "lines")
    put("trace.overhead_s", overhead_s, "s")
    return m


def measure_layers(config, workload, corpus_seed, deadline, tally):
    """One traced run, compared with the untraced runs of the same source and
    seed in this checkout (one is made first if there are none)."""
    untraced = record_path("untraced", workload, corpus_seed)
    if untraced.is_file():
        record = json.loads(untraced.read_text())
    else:
        plain = run_child(config, f"{workload}-plain", "0", deadline)
        if not tally.gate(plain, "untraced run"):
            return None
        record = note_untraced(plain, untraced, tally)
    traced = run_child(config, f"{workload}-traced", "1", deadline,
                       WORK / f"spans-{workload}.npz")
    if not tally.gate(traced, "traced run"):
        return None
    if manifest_hashes(traced.out_dir) != record["hashes"]:
        tally.problems.append("traced manifest hashes differ from the untraced runs")
    layers = traced.result["layers"]
    if traced.result["bad_self_spans"]:
        tally.problems.append(f"{traced.result['bad_self_spans']} spans have a "
                              "self time outside [0, duration]")
    # counts must repeat exactly between traced runs of the same code and seed
    counts_path = record_path("counts", workload, corpus_seed, HERE / "spans.py")
    counts = {name: [v["calls"], v["count"]] for name, v in sorted(layers.items())}
    if counts_path.is_file() and json.loads(counts_path.read_text()) != counts:
        tally.problems.append(f"layer counts differ from the earlier traced run "
                              f"in {counts_path.name}")
    counts_path.write_text(json.dumps(counts))
    overhead_s = traced.result["wall_s"] - statistics.median(record["walls"])
    return layer_metrics(layers, overhead_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "isofp" / "cli.py").is_file():
        print(f"error: no isofp sources under {SRC}", file=sys.stderr)
        return 2
    corpus_seed = corpus_seed_for(args.workload, args.seed)
    try:
        reference = gate.load_reference(args.workload, corpus_seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference for {args.workload} seed {corpus_seed}: {exc!r}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "isofp"), quiet=1)
    config = make_config(args.workload, corpus_seed)
    env = environment()
    tally = Tally(reference)

    if args.trace:
        metrics = measure_layers(config, args.workload, corpus_seed, deadline, tally)
        samples = None
    else:
        samples = measure_end_to_end(config, args.workload, corpus_seed,
                                     args.seconds, deadline, tally)
        metrics = None if samples is None else {
            name: (statistics.median(values), END_TO_END_UNITS[name])
            for name, values in samples.items()}
    if metrics is None:
        for line in tally.problems:
            print(f"error: {line}", file=sys.stderr)
        return 1
    bad_names = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad_names:
        tally.problems.append(f"metric names outside [A-Za-z0-9_.-]: {bad_names}")

    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed} -> corpus_seed {corpus_seed}"
          f"  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        n = f"  (median of {len(samples[name])})" if samples else ""
        print(f"{name:<40} {value:>16.6g} {unit}{n}")
    print(f"{'failed_frac':<40} {failed_frac:>16.6g} fraction"
          f"  ({tally.failed} of {tally.attempted} operations)")
    for line in tally.problems:
        print(f"problem: {line}")
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "corpus_seed": corpus_seed,
                    "samples": samples, "problems": tally.problems,
                    "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
