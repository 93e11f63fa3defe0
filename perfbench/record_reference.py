"""Record the reference ``epr_value`` lists for the default seed.

    python3 perfbench/record_reference.py

Runs the first cycles of every workload's ``correlate`` jobs for seed 0 in
this process and writes ``perfbench/reference.json``, keyed by the sha256 of
each config's text.  Run it only to re-baseline, on a commit whose values
are trusted; ``checks.check_correlate`` compares later runs against it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import jobs  # noqa: E402

SEED = 0
#: Cycles recorded per workload: several times what one run at the recording
#: commit gets through, where that is cheap to compute.
CYCLES = {"dense-hi-res": 4, "sweep-lo-res": 100, "cli-cold": 20}


def main() -> int:
    from bellepr.cli import main as bellepr_main

    values: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        cfg, out = Path(tmp) / "c.yaml", Path(tmp) / "c.csv"
        for workload, cycles in CYCLES.items():
            todo = [j for j in jobs(workload, SEED, cycles) if j.command == "correlate"]
            for job in todo:
                cfg.write_text(job.text, encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = bellepr_main(["correlate", str(cfg), "--out", str(out), "--threads", "1"])
                if rc != 0:
                    print(f"{workload} {job.label}: exit code {rc}", file=sys.stderr)
                    return 1
                values[job.sha] = checks.epr_values(out.read_text(encoding="utf-8"))
            print(f"{workload}: {len(todo)} configs", flush=True)
    payload = {"seed": SEED, "rtol": checks.RTOL, "values": values}
    checks.REFERENCE_FILE.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
