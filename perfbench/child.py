"""Fresh-process measurements, started by run.py.

    python3 perfbench/child.py setup <override>...
        Prints a JSON object: setup_s, the seconds this fresh interpreter
        takes to import dklb.cli and load_config the overrides (validation
        builds the symbol, so this includes one find_M), and calibration_s,
        the seconds the SETUP calibration kernel takes right after it.  Only
        the standard library is loaded before the clock starts, so numpy's
        import is part of setup_s.

    python3 perfbench/child.py rss <workload> <seed> <outdir>
        Runs the workload once and prints a JSON object with the exit codes
        and this process's peak resident set in KiB.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(overrides: list[str]) -> None:
    t0 = time.perf_counter()
    from dklb.cli import main  # noqa: F401
    from dklb.config import load_config

    load_config(None, tuple(overrides))
    elapsed = time.perf_counter() - t0
    import json

    import calibration

    print(json.dumps({"setup_s": elapsed,
                      "calibration_s": calibration.kernel(**calibration.SETUP)}))


def rss(name: str, seed: int, outdir: Path) -> None:
    import json
    import resource

    from workloads import WORKLOADS, invoke

    workload = WORKLOADS[name]
    codes = [invoke(cmd, workload.overrides_for(seed), outdir)
             for cmd in workload.commands]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "maxrss_kib": peak}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    else:
        rss(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
