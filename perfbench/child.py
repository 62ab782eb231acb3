"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py SRC CONFIG_JSON OUT_DIR RESULT_JSON TRACE [SPANS]

Imports isofp from SRC, loads the run config, and records the monotonic
clock when both are done (the end of set-up; the parent knows the start).
TRACE is ``setup`` (stop there), ``0`` (untraced run) or ``1`` (run with
the layer wrappers of ``spans.py`` installed; spans are saved to SPANS).
The result JSON carries the wall time of ``run_experiment`` and, for
traced runs, the per-layer span summary.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    src, config_path, out_dir, result_path, trace = argv[:5]
    sys.path.insert(0, src)
    import isofp.cli

    if not Path(isofp.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"isofp imported from {isofp.cli.__file__}, not from {src}")
    config = json.loads(Path(config_path).read_text())
    result = {"ready_monotonic": time.monotonic()}

    if trace != "setup":
        tracer = None
        if trace == "1":
            import spans  # next to this file, so on sys.path

            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        code, _files, _rows = isofp.cli.run_experiment(config, out_dir)
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            result["layers"], result["bad_self_spans"] = tracer.summary()
            tracer.save(argv[5])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
