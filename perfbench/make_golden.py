"""Write the reference records ``run.py`` compares against.

Usage, from the repository root:

    python3 perfbench/make_golden.py --workload fig3_variational --seeds 0

Runs the workload once per seed in a child process set up exactly as a
benchmark run (one BLAS thread, ``src`` on the path) and stores its records
at full precision, without ``wall_ms``, in
``perfbench/golden/<workload>-seed<seed>.json``.
Regenerate only for a deliberate change of results, and state the change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import GOLDEN_DIR, OUT_DIR, child_cmd, child_env
from workload import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    root = Path.cwd()
    (root / OUT_DIR).mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in (int(s) for s in args.seeds.split(",")):
        args.seed = seed
        out = root / OUT_DIR / f"golden-{args.workload}-seed{seed}.json"
        subprocess.run(child_cmd(args, "--out", str(out)),
                       env=child_env(root), check=True)
        res = json.loads(out.read_text())
        golden = {"workload": args.workload, "seed": seed,
                  "trials": res["trials"], "env": res["env"],
                  "rows": [row[:-1] for row in res["records"]]}
        path = GOLDEN_DIR / f"{args.workload}-seed{seed}.json"
        path.write_text(json.dumps(golden) + "\n")
        print(f"wrote {len(res['records'])} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
