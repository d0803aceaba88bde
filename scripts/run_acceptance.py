#!/usr/bin/env python3
"""Run the acceptance suite and the CLI-level manifest, printing one line per
criterion.  Exits nonzero on any failure.  Both runs import the package from
this checkout's src, installed or not.

    python3 scripts/run_acceptance.py
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    rc = subprocess.call([sys.executable, "-m", "pytest",
                          str(ROOT / "tests" / "test_acceptance.py"), "-q", "-s"], env=env)
    if rc != 0:
        return rc
    # the report records the manifest path as given: relative, it does not
    # depend on where the checkout is
    return subprocess.call([sys.executable, "-m", "entriv.cli", "batch",
                            "--manifest", "manifests/acceptance.json",
                            "--out", str(ROOT / "acceptance_report.json")],
                           cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
