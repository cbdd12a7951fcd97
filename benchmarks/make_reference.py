"""Record the train-dropclass final loss per seed into reference.json.

    python3 benchmarks/make_reference.py

The output check of train-dropclass compares a run's final loss with this
table: it must lie within the across-seed spread (max - min over the seeds
below) of the recorded value at the same seed, or of the table's median for
a seed not recorded.  The table is the program's behaviour at the commit
that defined the benchmark; re-record it only when a change is meant to
alter training, and say so.
"""

import json
import os
import shutil
import sys

import run

SEEDS = range(64)


def main():
    os.environ.update(run.THREAD_PINS)
    sys.path.insert(0, run.SRC)
    import workloads

    table = {}
    for scale in ("full", "tiny"):
        w = workloads.get("train-dropclass", scale)
        workdir = os.path.join(run.HERE, ".work", f"reference-{os.getpid()}")
        losses = {}
        try:
            for seed in SEEDS:
                inputs = workloads.setup(w, seed, workdir)
                _, metrics, _ = workloads.fit(w, inputs, seed)
                losses[str(seed)] = metrics.losses[-1]
                print(f"{scale} seed {seed}: {metrics.losses[-1]:.6f}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table[workloads.reference_key(w, scale)] = {"final_loss": losses}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
