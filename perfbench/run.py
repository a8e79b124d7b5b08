"""The dklb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) through the dklb CLI in
this process and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, measured
with tracing off; with --trace 1 they are its per-layer metrics, from runs
with every public function of the traced modules wrapped in spans.  Raw
samples, the environment block and the spans go to .bench_results/ in the
checkout; artifacts of the runs go to .bench_out/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
from tracer import CLI_SPAN, Tracer
from workloads import WORKLOADS, check, invoke, output_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Thread pools of the numerical libraries are pinned to one thread.
# DKLB_THREADS is removed so that verify_smoothing stays serial, and
# PYTHONDONTWRITEBYTECODE so that the set-up children import cached
# bytecode, as an installed package does, instead of compiling dklb anew.
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNSET_VARS = ("DKLB_THREADS", "PYTHONDONTWRITEBYTECODE")

MIN_REPEATS = 3
MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150


def pin_environment() -> dict[str, str]:
    """Pin thread counts before numpy loads; return the values found set."""
    found = {k: os.environ[k] for k in (*PINNED_THREAD_VARS, *UNSET_VARS)
             if k in os.environ}
    for key in PINNED_THREAD_VARS:
        os.environ[key] = "1"
    for key in UNSET_VARS:
        os.environ.pop(key, None)
    return found


# --- environment block -----------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(found: dict[str, str]) -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "revision": _git_revision(),
        "pinned": {k: "1" for k in PINNED_THREAD_VARS},
        "unset": list(UNSET_VARS),
        "set_before_pinning": found,
    }


# --- one session of workload runs ------------------------------------------


class Session:
    """Runs one workload repeatedly and tallies the correctness checks."""

    def __init__(self, workload, seed: int, out_root: Path):
        self.workload = workload
        self.seed = seed
        self.overrides = workload.overrides_for(seed)
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.last_output_bytes = 0

    def fresh_outdir(self, name: str = "run") -> Path:
        outdir = self.out_root / name
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        return outdir

    def run(self, call=None) -> float:
        """One timed workload run (artifact writes in, the check out)."""
        call = call or invoke
        outdir = self.fresh_outdir()
        gc.collect()
        t0 = perf_counter()
        codes = [call(cmd, self.overrides, outdir) for cmd in self.workload.commands]
        elapsed = perf_counter() - t0
        self.record(codes, outdir)
        self.last_output_bytes = output_bytes(outdir)
        return elapsed

    def record(self, codes, outdir: Path) -> None:
        self.attempted += 1
        problems = check(self.workload, codes, outdir)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {self.workload.name}: {problem}", file=sys.stderr)

    def check_counts(self, against: str, differing: list[str]) -> None:
        """Count one check that every count repeated exactly."""
        self.attempted += 1
        if differing:
            self.failed += 1
            for item in differing:
                print(f"perfbench: {self.workload.name}: count differs {against}: "
                      f"{item}", file=sys.stderr)

    def repeat(self, seconds: float, body) -> None:
        """Call body() until the next call would overrun the measuring window."""
        start = perf_counter()
        done = 0
        while True:
            body()
            done += 1
            elapsed = perf_counter() - start
            if done >= MIN_REPEATS and elapsed * (done + 1) / done > seconds:
                return


def code_digest() -> str:
    """SHA-256 over the dklb sources, the benchmark's files and its spec."""
    digest = hashlib.sha256()
    files = sorted((SRC / "dklb").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in [*files, ROOT / "BENCHMARK.json"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def previous_counts(path: Path, digest: str) -> dict | None:
    """Counts of an earlier traced run stored at path, if it ran the same code."""
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if earlier.get("code_digest") != digest:
        return None
    return earlier.get("raw", {}).get("counts")


def _child(*args: str) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(session: Session) -> tuple[float, float]:
    """Set-up seconds of a fresh interpreter, and its calibration seconds."""
    reply = json.loads(_child("setup", *session.overrides))
    return reply["setup_s"], reply["calibration_s"]


def measure_peak_rss(session: Session) -> float:
    outdir = session.fresh_outdir("rss")
    reply = json.loads(_child("rss", session.workload.name, str(session.seed),
                              str(outdir)))
    session.record(reply["codes"], outdir)
    return reply["maxrss_kib"] / 1024.0


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    measure_setup(session)  # compiles bytecode; not counted
    peak_rss = measure_peak_rss(session)
    session.run()  # warm-up: caches fill, lazy set-up finishes
    walls: list[float] = []
    setup: list[tuple[float, float]] = []
    # The host's speed drifts over seconds, so each repeat is compared with
    # the mean of the calibrations just before and after it.  Each set-up
    # child times the SETUP kernel right after its set-up, and its set-up
    # seconds are rescaled to a host on which that kernel takes
    # SETUP_REFERENCE_S.  The set-up samples spread over the whole window.
    cal = [calibration.kernel(**calibration.WALL)]

    def body():
        walls.append(session.run())
        cal.append(calibration.kernel(**calibration.WALL))
        setup.append(measure_setup(session))

    session.repeat(seconds, body)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(measure_setup(session))
    rel = [2.0 * w / (before + after) for w, before, after in zip(walls, cal, cal[1:])]
    setup_scaled = [s / c * calibration.SETUP_REFERENCE_S for s, c in setup]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_rel": statistics.median(rel),
        "setup_s": statistics.median(setup_scaled),
        "setup_unscaled_s": statistics.median(s for s, _ in setup),
        "peak_rss_mib": peak_rss,
    }
    raw = {"wall_s": walls, "calibration_s": cal,
           "setup_s": [s for s, _ in setup],
           "setup_calibration_s": [c for _, c in setup],
           "peak_rss_mib": peak_rss}
    return metrics, raw


# --- traced runs -------------------------------------------------------------

# per-layer metrics that are not <function>.calls or <function>.self_s
_DERIVED = {
    "symbols.semigroup_multiplier.distinct_share":
        lambda s: s["distinct_multipliers"] / max(s["calls"]["symbols.semigroup_multiplier"], 1),
    "grid.fft_bytes": lambda s: s["counts"]["fft_bytes"],
    "grid.complex_share":
        lambda s: s["counts"]["complex_calls"] / max(s["counts"]["transform_calls"], 1),
    "solver.etdrk4.steps": lambda s: s["counts"]["etdrk4_steps"],
    "solver.picard.iterations": lambda s: s["counts"]["picard_iterations"],
    "solver.picard.sweep_terms": lambda s: s["counts"]["picard_sweep_terms"],
    "conjugation.seam_products": lambda s: s["counts"]["seam_products"],
    "cli.invocations": lambda s: s["calls"][CLI_SPAN],
    "cli.self_s": lambda s: s["self_s"][CLI_SPAN],
    "cli.output_bytes": lambda s: s["output_bytes"],
}


def _layer_value(name: str, summary: dict, known: set[str]):
    if name in _DERIVED:
        return _DERIVED[name](summary)
    function, _, kind = name.rpartition(".")
    if function not in known or kind not in ("calls", "self_s"):
        raise KeyError(f"per-layer metric {name!r} names no traced function")
    return summary[kind][function]


def traced(session: Session, seconds: float, per_layer: list[str],
           spans_path: Path, previous: dict | None) -> tuple[dict, dict]:
    """Per-layer figures; previous holds the counts of an earlier traced run
    of the same workload, seed and code, or is None."""
    session.run()  # warm-up, untraced
    plain: list[float] = []
    summaries: list[dict] = []
    tracer = None

    def body():
        nonlocal tracer
        plain.append(session.run())
        tracer = Tracer()
        tracer.install()
        try:
            wall = session.run(tracer.wrap(invoke, CLI_SPAN))
        finally:
            tracer.uninstall()
        summaries.append({
            "wall_s": wall,
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counts": tracer.counts,
            "distinct_multipliers": tracer.distinct_multiplier_calls,
            "output_bytes": session.last_output_bytes,
        })

    session.repeat(seconds, body)
    tracer.write_spans(spans_path)
    known = set(tracer.names) | {CLI_SPAN}
    # each traced repeat against the untraced repeat just before it
    overhead = statistics.median(s["wall_s"] / p for s, p in zip(summaries, plain)) - 1.0
    metrics, counts, differing = {}, {}, []
    for name in per_layer:
        if name == "trace.overhead_share":
            metrics[name] = overhead
            continue
        values = [_layer_value(name, s, known) for s in summaries]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(values)
            continue
        # every other figure is a count, or a ratio of counts
        metrics[name] = counts[name] = values[-1]
        if len(set(values)) != 1:
            differing.append(f"{name} {values}")
    session.check_counts("between the traced repeats", differing)
    if previous is not None:
        session.check_counts("against the previous traced run", [
            f"{name} {previous.get(name)!r} then {value!r}"
            for name, value in counts.items() if previous.get(name) != value])
    raw = {"untraced_wall_s": plain, "traced": summaries, "counts": counts}
    return metrics, raw


# --- entry point -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    found = pin_environment()
    if not (SRC / "dklb" / "cli.py").is_file():
        print(f"perfbench: no dklb sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import dklb.cli  # noqa: F401  (loads every traced module)

    # The manifest echoes output.dir, so the artifacts go to a relative
    # directory of fixed length: cli.output_bytes then does not depend on
    # where the checkout lies or on the process id.
    os.chdir(ROOT)

    env = environment(found)
    print(f"perfbench: environment {json.dumps(env)}", file=sys.stderr)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    digest = code_digest()
    session = Session(WORKLOADS[args.workload], args.seed,
                      Path(".bench_out") / f"{args.workload}-{os.getpid():07d}")
    try:
        if args.trace:
            wanted = spec["per_layer"]
            values, raw = traced(session, args.seconds, [m["name"] for m in wanted],
                                 results / f"{args.workload}-seed{args.seed}-spans.tsv",
                                 previous_counts(results / f"{stem}.json", digest))
        else:
            wanted = spec["end_to_end"]
            values, raw = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(session.out_root, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "code_digest": digest, "result": result,
         "all_metrics": values, "raw": raw},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
