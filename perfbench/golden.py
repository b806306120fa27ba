"""Write golden.json: SHA-256 of the stdout of every benchmark item.

Usage: python3 perfbench/golden.py

Each item runs through the real entry point, ``python3 -m hlskit.cli ...
--no-timing``, from this checkout's ``src``.  The checked-in golden.json
was written from the commit that introduced the benchmark; the CLI
contract requires these bytes to stay identical, so regenerate it only for
a deliberate, documented change of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from run import HERE, ROOT, SRC, WORKLOADS


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    golden = {}
    for items in WORKLOADS.values():
        for item in items:
            proc = subprocess.run(
                [sys.executable, "-m", "hlskit.cli", *item.split(), "--no-timing"],
                capture_output=True,
                cwd=ROOT,
                env=env,
                check=True,
            )
            golden[item] = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{golden[item][:12]}  {item}")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
