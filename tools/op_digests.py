"""Digest the outputs of every benchmark op, to compare two trees byte for byte.

Run from the repository root:

    python3 tools/op_digests.py [--src SRC] [--seeds 1,2,3]

For each seed the seeded inputs of ``bench/workloads.py`` are written to a
fresh temporary directory, and every op of the three workloads runs there,
in this process, through ``depthkit.cli.main`` imported from SRC (default
``src``), as ``bench/worker.py`` runs it.  Each op prints one line: the
seed, the op name, the exit status (``raised`` for an op that raised), and
the SHA-256 of its stdout, of its stderr and of each file it wrote or
changed, by path relative to the directory.  Two trees give every op the
same outputs when

    diff <(python3 tools/op_digests.py --src A/src) \\
         <(python3 tools/op_digests.py --src B/src)

is empty.  ``bench/`` is imported from this tree and not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench/ is read, never written: no bytecode caches are left in it
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "bench"))

import worker  # noqa: E402
import workloads  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(top: str) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under ``top``."""
    found = {}
    for folder, _, names in os.walk(top):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = _sha(fh.read())
    return found


def digest_lines(cli, seed: int):
    """One line per op of every workload at ``seed``, in workload order."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="op-digests-") as workdir:
        os.makedirs(os.path.join(workdir, "out"))
        paths = workloads.write_inputs(seed, workdir)
        os.chdir(workdir)
        try:
            for workload in workloads.WORKLOADS:
                for op in workloads.ops_for(workload, paths):
                    before = _files(".")
                    _, status, out, err = worker.run_op(cli, list(op.argv))
                    written = sorted((path, sha) for path, sha in _files(".").items()
                                     if before.get(path) != sha)
                    fields = [str(seed), op.name, "raised" if status is None else str(status),
                              f"stdout={_sha(out.encode())}", f"stderr={_sha(err.encode())}"]
                    fields += [f"{path}={sha}" for path, sha in written]
                    yield " ".join(fields)
        finally:
            os.chdir(home)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    args = parser.parse_args()
    cli = worker._import_cli(os.path.abspath(args.src))
    for seed in map(int, args.seeds.split(",")):
        for line in digest_lines(cli, seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
