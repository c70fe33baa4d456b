"""Content digests of every file the benchmark's workloads write.

    python3 tools/output_digests.py --seed 7 --seed 1234 [--workload NAME]...

Builds each workload's plan with ``perfbench/workloads.make_plan`` once per
seed and runs its operations in a temporary directory, each in a fresh
process exactly as ``perfbench/run.py`` runs it (its ``prepare`` and
``op_argv``), on the package under ``src/`` of this checkout.  Prints one
``sha256  workload/seed/file`` line per output, sorted by path; an ``.npz``
archive is hashed by its arrays (``run.digests``).  Two checkouts whose
listings are equal wrote the same bytes.  Exits 1 if an operation fails or
an output is missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.PLANNERS),
                        help="default: every workload")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    lines, failed = [], False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or sorted(workloads.PLANNERS):
            for seed in args.seed:
                plan = workloads.make_plan(name, seed)
                outdir = os.path.join(tmp, name, str(seed))
                bench.prepare(plan, outdir)
                for op in plan.ops:
                    code = subprocess.run(bench.op_argv(op), cwd=outdir, env=env,
                                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL).returncode
                    if code:
                        print(f"error: {name}/{seed}: {op.name} exited {code}", file=sys.stderr)
                        failed = True
                for outputs in bench.digests(plan, outdir):
                    for path, digest in outputs.items():
                        failed |= digest is None
                        lines.append((f"{name}/{seed}/{path}", digest or "missing"))
    for path, digest in sorted(lines):
        print(f"{digest}  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
