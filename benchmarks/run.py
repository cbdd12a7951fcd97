"""dropclass benchmark entry point.

    python3 benchmarks/run.py --workload train-dropclass --seed 1 --seconds 10 --trace 0

Runs one workload in this process and prints every metric by name with its
unit; the last line of standard output is the JSON result.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--workload all`` runs each workload in a child process of its own, one
after another.  See benchmarks/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-dropclass", "adapt-combine", "score-diagnose")
# One BLAS thread: the numbers measure the program, not how many cores it found.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the harness's smoke test")
    return p.parse_args(argv)


def run_all(args):
    worst = 0
    for name in WORKLOADS:
        code = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--scale", args.scale]).returncode
        worst = max(worst, code)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dropclass", "__init__.py")):
        print(f"no dropclass sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    # One core for the whole run, so that the host-speed readings and the
    # timed calls run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import dropclass
    if not os.path.abspath(dropclass.__file__).startswith(SRC + os.sep):
        print(f"dropclass imported from {dropclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
