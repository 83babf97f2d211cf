"""Record the expected outputs of ``search-joint`` and ``tournament-cluster``.

The checks in ``perfbench/checks.py`` compare every run against these
records, so a change that is meant to alter no simulated statistic can
be shown to alter none. Re-record only for a deliberate physics change::

    PYTHONPATH=src:. python3 -m perfbench.record --workload search-joint \
        --seeds 0:32
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perfbench.checks import RECORDS_DIR, record_path
from perfbench.worker import PROGRAMS
from perfbench.inputs import program_inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROGRAMS))
    parser.add_argument("--seeds", default="0:32",
                        help="half-open range start:stop (default 0:32)")
    args = parser.parse_args(argv)
    start, stop = (int(x) for x in args.seeds.split(":"))

    path = record_path(args.workload)
    records = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    for seed in range(start, stop):
        inputs = program_inputs(args.workload, seed)
        program = PROGRAMS[args.workload](inputs)
        out = [program.outputs(program.unit(i), full=False) for i in range(len(inputs))]
        records[str(seed)] = out
        print(f"{args.workload} seed {seed}: {out}", file=sys.stderr, flush=True)
        os.makedirs(RECORDS_DIR, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(records.items(), key=lambda kv: int(kv[0]))),
                      fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
