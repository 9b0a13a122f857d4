"""What the scaling tools share: the command line, one fresh interpreter per
size under a time limit, and the exponent fitted to the times.

A tool passes its CHILD snippet, a Python program formatted with ``src``,
``n`` and any further fields, which prints its numbers on one line.
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
from typing import Callable


def parse_args(doc: str, sizes: str, limit: float) -> argparse.Namespace:
    """``--src``, ``--sizes`` and ``--limit`` with the tool's defaults."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--sizes", default=sizes)
    parser.add_argument("--limit", type=float, default=limit)
    return parser.parse_args()


def measure(args: argparse.Namespace, child: str,
            row: Callable[[int, list[str]], dict], label: str = "",
            **fields) -> tuple[dict[int, dict], list[int]]:
    """Run ``child`` once per size, each in a fresh interpreter.

    ``row(n, words)`` turns the words the child printed into the record of
    size n (and may print it).  A child that takes longer than
    ``args.limit`` seconds is reported and its size returned as skipped.
    """
    rows, skipped = {}, []
    for n in map(int, args.sizes.split(",")):
        code = child.format(src=args.src, n=n, **fields)
        try:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, timeout=args.limit, check=True)
        except subprocess.TimeoutExpired:
            skipped.append(n)
            print(f"{label}n={n}: skipped, over {args.limit:g} s")
            continue
        rows[n] = row(n, proc.stdout.split())
    return rows, skipped


def exponent(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(value) against log(n)."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
