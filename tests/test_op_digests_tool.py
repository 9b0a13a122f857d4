"""The op digest tool, ``tools/op_digests.py``: one line per benchmark op.

It runs the 68 ops of one seed in one fresh interpreter, about 3 s.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_digests.py"
SHA = "[0-9a-f]{64}"


def test_one_line_per_op_with_the_digests_of_every_output():
    bench = sorted(p.relative_to(ROOT) for p in (ROOT / "bench").rglob("*"))
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "1",
                           "--src", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 68
    line = re.compile(rf"1 (depth-all|regions|audit)/\S+ (\d+|raised) "
                      rf"stdout={SHA} stderr={SHA}( out/\S+={SHA})*")
    assert all(line.fullmatch(text) for text in lines)
    # each region ladder writes its SVG and JSON documents
    ladders = [text for text in lines if text.split()[1].startswith("regions/region:")]
    assert len(ladders) == 15
    assert all(len(re.findall(r" out/\S+\.(svg|json)=", text)) == 2 for text in ladders)
    # bench/ is imported, not changed
    assert sorted(p.relative_to(ROOT) for p in (ROOT / "bench").rglob("*")) == bench
