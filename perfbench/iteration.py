"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

    python3 perfbench/iteration.py MODE LAUNCHED SPANS_PATH [CLI ARGS...]

MODE is ``setup`` (import cremonalab and stop), ``run`` (call
``cremonalab.cli.main`` on the CLI arguments with stdout captured) or
``trace`` (the same, with spans recorded around every layer function and
written to SPANS_PATH).  LAUNCHED is the parent's ``time.monotonic()`` just
before it started this process, so ``setup_s`` covers interpreter start-up
and the import.  The result is one JSON object on stdout.
"""

import os
import sys
import time


def main() -> int:
    mode, launched, spans_path, cli_args = (sys.argv[1], float(sys.argv[2]),
                                            sys.argv[3], sys.argv[4:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import cremonalab.cli

    ready = time.monotonic()
    import contextlib
    import io
    import json
    import resource

    result = {"setup_s": ready - launched}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    recorder = None
    if mode == "trace":
        import tracing

        recorder = tracing.Recorder()
        result["wrapped_bindings"] = tracing.install(recorder)
    captured = io.StringIO()
    cpu_start = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        exit_code = cremonalab.cli.main(cli_args)
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = time.process_time() - cpu_start
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["exit_code"] = exit_code
    result["stdout"] = captured.getvalue()
    if recorder is not None:
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
