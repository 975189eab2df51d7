"""Record perfbench/reference/<workload>.json from one run of the current
code.  Run from the root of a checkout, only on a commit whose outputs are
the ones later commits must reproduce:

    python3 perfbench/record_reference.py [WORKLOAD ...]
"""

import json
import sys

import run


def main() -> int:
    names = sys.argv[1:] or list(run.WORKLOADS)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        got = run.invoke_workload(name, traced=False, timeout=600)
        if got["outputs"] is None:
            print(f"{name}: invocation failed:\n{got['inv'].stderr}", file=sys.stderr)
            return 1
        ref = {"workload": name, "cli_args": run.WORKLOADS[name][0],
               "outputs": got["outputs"], "sha256": got["sha256"]}
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print(f"{name}: wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
