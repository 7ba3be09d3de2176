"""Write reference.json: the numbers each deterministic op reports, taken
from the library in this checkout.  Run it only at the commit whose values
become the reference; the checks then hold later commits to them.

    python3 bench/record_reference.py     # from the root of the checkout
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import workloads as W  # noqa: E402


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for ops in W.build_workloads().values():
            for op in ops:
                if not op.recorded:
                    continue
                W.clear_library_caches()
                out_dir = Path(tmp) / op.name
                env = op.run(op.prepare(0), out_dir)
                ref[op.name] = W.summarize(env["experiment"], env, out_dir)
                print(f"recorded {op.name}", file=sys.stderr)
    W.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
