"""Correctness gate: compare a run's artifacts with the stored reference.

An operation is one corpus-member report (``check_*.json``) or one
evolution's rate verdict (``rates_*.json``).  It fails when it did not
pass, is inconclusive or rejected, is missing (the run raised, or the
report vanished), is not in the reference, or when its ratio or fitted
rate differs from the reference by more than the run's ratio tolerance.

    python3 perfbench/gate.py capture [WORKLOAD ...]

re-captures ``reference/<workload>.json`` (all workloads by default) for
every reference seed.  Run
it only on code whose outputs are known good (the reference was captured
from the unmodified isofp 0.1.0 sources).
"""

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NEGATIVE_CONTROL_SHIFT = 1e-5


def _num(value):
    return math.nan if value is None else float(value)


def records(out_dir):
    """{operation key: [status, verdict, value]} read from a run's artifacts."""
    out = {}
    for path in sorted(Path(out_dir).glob("check_*.json")):
        for rep in json.loads(path.read_text())["reports"]:
            out[f"{path.stem}/{rep['witness']}"] = [
                rep["status"], "pass" if rep["passed"] else "fail",
                _num(rep["ratio"])]
    for path in sorted(Path(out_dir).glob("rates_*.json")):
        payload = json.loads(path.read_text())
        rate = payload["fitted_chi2_rate"]
        bound = payload["rate_bound_2_over_c"]
        passed = rate is not None and bound is not None and rate >= 0.95 * bound
        out[f"{path.stem}/fitted_chi2_rate"] = [
            "ok", "pass" if passed else "fail", _num(rate)]
    return out


def compare(got, reference, tol):
    """(attempted, failures) where failures maps key -> reason."""
    failures = {}
    for key in sorted(set(got) | set(reference)):
        if key not in got:
            failures[key] = "missing"
        elif key not in reference:
            failures[key] = "not in the reference"
        else:
            status, verdict, value = got[key]
            ref_value = reference[key][2]
            if status != "ok":
                failures[key] = status
            elif verdict != "pass":
                failures[key] = "did not pass"
            elif not abs(value - ref_value) <= tol:
                failures[key] = f"value {value!r} vs reference {ref_value!r}"
    return len(set(got) | set(reference)), failures


def negative_control(got, reference, tol):
    """Shift one passing reference value by 1e-5 and check that the gate
    then counts exactly one more failed operation."""
    _, base = compare(got, reference, tol)
    ok_keys = [k for k in sorted(reference) if k in got and k not in base]
    if not ok_keys:
        return False
    shifted = dict(reference)
    status, verdict, value = reference[ok_keys[0]]
    shifted[ok_keys[0]] = [status, verdict, value + NEGATIVE_CONTROL_SHIFT]
    _, after = compare(got, shifted, tol)
    return len(after) == len(base) + 1


def load_reference(workload, corpus_seed):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["seeds"][str(corpus_seed)]


def capture(workloads):
    import run

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads or run.WORKLOADS:
        seeds = {}
        for corpus_seed in run.REFERENCE_SEEDS[workload]:
            config = run.make_config(workload, corpus_seed)
            child = run.run_child(config, f"capture-{workload}", "0",
                                  run.time.monotonic() + 600)
            if child.error or child.result["exit_code"] != 0:
                raise SystemExit(f"{workload} seed {corpus_seed}: {child.error}")
            seeds[str(corpus_seed)] = records(child.out_dir)
            print(f"{workload} corpus_seed {corpus_seed}: "
                  f"{len(seeds[str(corpus_seed)])} operations", flush=True)
        payload = {"workload": workload, "ratio_tol": run.RATIO_TOL,
                   "environment": run.environment(), "seeds": seeds}
        (REFERENCE_DIR / f"{workload}.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:2] != ["capture"]:
        raise SystemExit("usage: python3 perfbench/gate.py capture [WORKLOAD ...]")
    capture(sys.argv[2:])
