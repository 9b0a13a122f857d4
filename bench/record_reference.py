"""Record the depth values that checks.py compares outputs with.

Run from the repository root, at the commit whose outputs become the
reference:

    python3 bench/record_reference.py --seeds 1-10

Writes ``bench/reference.json``.  ``eu27`` holds every depth of the bundled
table.  ``seeded`` holds, for each seed, the ``depth-all`` outputs on the
seeded clouds of the depths that checks.py has no closed form or numpy
oracle for.  Values are parsed from the printed lines, so they carry the
command's printed precision.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from report import seed_list  # noqa: E402

WORK_DIR = os.path.join(".bench_work", "reference")


def _unoracled(op) -> bool:
    return (op.command == "depth" and op.dataset != "eu27"
            and op.depth not in checks.ORACLES
            and op.depth not in checks.SEEDED_ORACLES)


def record(cli, seed: int, keep) -> dict:
    """dataset -> depth -> printed values of the ``depth-all`` ops ``keep``
    selects, on the inputs of ``seed``."""
    workdir = os.path.abspath(WORK_DIR)
    shutil.rmtree(workdir, ignore_errors=True)
    paths = workloads.write_inputs(seed, workdir)
    out: dict = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for op in workloads.ops_for("depth-all", paths):
            if not keep(op):
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(list(op.argv))
            if status != 0:
                raise SystemExit(f"{op.name} exited {status}")
            values = [float(line.rpartition(",")[2])
                      for line in buf.getvalue().splitlines()]
            out.setdefault(op.dataset, {})[op.depth] = values
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    os.environ.pop("DEPTHKIT_SEED", None)  # ops pass --seed explicitly
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import depthkit.cli as cli

    reference = {"eu27": record(cli, 0, lambda op: op.dataset == "eu27")["eu27"],
                 "seeded": {}}
    for seed in seed_list(args.seeds):
        reference["seeded"][str(seed)] = record(cli, seed, _unoracled)
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    text = json.dumps(reference, indent=1)
    # one list of values per line keeps the file short and its diffs readable
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", "", m.group(1)) + "]", text)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
