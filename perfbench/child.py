"""One timed `magnonwalk` CLI invocation, run in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON [--trace] -- CLI_ARGS...
    python3 perfbench/child.py RESULT_JSON --import-only

Times `import magnonwalk.cli` (the set-up every CLI call pays) and then
`cli.main(CLI_ARGS)`, and writes {"rc", "import_s", "run_s", "spans"} to
RESULT_JSON.  With --trace the module attributes of the package are
wrapped in spans first (see tracer.py); the spans are kept in memory and
written out only after `main` returns.  CPU time and peak RSS are taken by
the parent from this process's rusage, so nothing else heavy runs in it.
"""

import json
import sys
import time


def main() -> int:
    result_path = sys.argv[1]
    opts = sys.argv[2:]
    cli_args = opts[opts.index("--") + 1:] if "--" in opts else []

    t0 = time.perf_counter()
    import magnonwalk.cli as cli
    import_s = time.perf_counter() - t0

    result = {"rc": 0, "import_s": import_s, "run_s": None, "spans": None}
    if "--import-only" not in opts:
        tracer = None
        if "--trace" in opts:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        try:
            result["rc"] = cli.main(cli_args)
        except SystemExit as exc:  # argparse errors
            result["rc"] = exc.code if isinstance(exc.code, int) else 1
        result["run_s"] = time.perf_counter() - t1
        if tracer is not None:
            tracer.close()
            result["spans"] = tracer.spans
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
