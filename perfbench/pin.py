"""Record the answers the current program gives on a workload's pools.

    python3 perfbench/pin.py --workload exact-sparse --seeds 0-15

For each seed, every instance of the pool is run once through the same
checked operation as the benchmark, and the answers (crank value, approx
height, star height, accepted-word count or minimum DFVS size) are stored
in pins.json with a digest of the instance texts.  Pin from a commit whose
answers are known to be right; the benchmark then counts any later
difference as a failed operation.
"""

from __future__ import annotations

import argparse
import fcntl
import json

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", required=True, help="one seed or a range lo-hi")
    args = p.parse_args(argv)
    for seed in parse_seeds(args.seeds):
        dr, pool, _ = run.setup(args.workload, seed, repeats=1)
        answers = [workloads.run_op(dr, inst)[0] for inst in pool]
        entry = {"digest": workloads.digest(pool), "answers": answers}
        with open(run.PINS, "a+") as fh:  # several pinning processes may share the file
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.seek(0)
            pins = json.loads(fh.read() or "{}")
            pins.setdefault(args.workload, {})[str(seed)] = entry
            fh.seek(0)
            fh.truncate()
            fh.write(json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"pinned {args.workload} seed {seed}: {len(answers)} answers", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
