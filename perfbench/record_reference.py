#!/usr/bin/env python3
"""Write perfbench/reference.json: every checked output of every input set.

    python3 perfbench/record_reference.py [workload ...]

Each workload runs one cycle per input set (0 .. POOL-1), and its outputs
become the references that run.py checks later commits against. Run it on
the commit that defines the benchmark and not after: a recording made on
changed code would hide the change. Outputs that do not depend on the seed (the
full-scale taps) are kept once, under "shared".
"""

from __future__ import annotations

import json
import sys
import time

import run


def main(argv) -> int:
    run.cap_threads()
    run.import_program()
    from workloads import POOL, WORKLOADS

    path = run.HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or list(WORKLOADS):
        refs[name] = {}
        for k in range(POOL):
            t0 = time.perf_counter()
            wl, rec = run.run_workload(name, k, 0.0, False, None)
            if rec.problems:
                print("\n".join(rec.problems), file=sys.stderr)
                return 1
            for key, value in rec.outputs.items():
                slot = "shared" if key.startswith("fullscale.") else str(k)
                refs[name].setdefault(slot, {})[key] = (
                    [float(v) for v in value] if isinstance(value, list)
                    else float(value))
            print(f"{name} set {k}: {len(rec.outputs)} outputs "
                  f"in {time.perf_counter() - t0:.1f} s", flush=True)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
