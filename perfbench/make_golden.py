"""Write perfbench/golden.json: SHA-256 of every suite CSV at the default seed.

Run from the root of a copsem checkout:

    python3 perfbench/make_golden.py

The hashes are the behaviour contract the suite workload checks. Make them
again only when a change is meant to alter the CSVs, and say why where the
change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from worker import SUITE_COMMANDS, SUITE_CSVS


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    import numpy
    import scipy

    from copsem.cli import main as copsem_main
    from copsem.harness import DEFAULT_SEED

    hashes = {}
    with tempfile.TemporaryDirectory(dir=".") as out:
        for cmd in SUITE_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = copsem_main([cmd, "--seed", str(DEFAULT_SEED), "--out", out])
            if rc != 0:
                raise SystemExit(f"{cmd} exited {rc}; golden hashes need a passing suite")
            for name in SUITE_CSVS[cmd]:
                with open(os.path.join(out, name), "rb") as fh:
                    hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    doc = {
        "seed": DEFAULT_SEED,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "csv_sha256": hashes,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
