"""One workload in one fresh interpreter: set-up, then cold/warm study runs.

``run.py`` starts this script with the package source on ``PYTHONPATH`` and
OpenBLAS pinned to one thread, and reads the single JSON line it prints.

Set-up is ``import kahlerlab.experiments`` plus ``parse_config`` of the
workload config.  A pair is a cold run (``run_study`` + ``emit_report``
against an empty cache directory) followed by a warm run of the same config
against the cache the cold run filled.  Pairs repeat until the next one
would end more than half a pair after ``--seconds``, so that a run of long
pairs measures about ``--seconds`` too.  With ``--trace 1`` every pair also
repeats parse, cold and warm under :class:`tracer.Tracer`; the untraced cold
run of the pair gives the tracing overhead.

Host speed.  On a shared host the speed of the CPU drifts by a third and
more within minutes, as other tenants load it, and that drift swamps the
run-to-run spread of the study times.  So between untraced study runs the
worker times the fixed kernel of ``calibrate.py`` in a second interpreter
(``run.py`` pins both to the same CPU).  The reported ``cold_s`` and
``warm_s`` of a run are its wall time scaled by ``CAL_REF_S`` over the mean
of the kernel times just before and just after it: the wall time at the
host speed where the kernel takes ``CAL_REF_S``.  The plain wall times are
returned as well.

Pair 0 runs the config with seed ``[seed]`` and pair ``k > 0`` with
``[seed, k]``, so the medians of one run cover several draws of the random
sections: the cost of a study depends on them (a failed approximation cell
skips its remaining samples).  Report flags, ``fail_frac`` and the reference
check come from pair 0, the config at the benchmark's seed.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# kahlerlab, numpy and scipy are first imported inside setup()'s timed
# region, which is what setup_s measures
import workloads
from tracer import Tracer

MIN_PAIRS = 2

# numeric CSV cells must match the stored reference to this tolerance;
# later changes may reorder floating-point work, but not change results
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# median time of calibrate.kernel() on the 2-vCPU Xeon host where the
# benchmark was written, unloaded; the host speed that cold_s and warm_s are
# scaled to
CAL_REF_S = 0.028


def setup(doc):
    """Import the study driver and parse a config document; (cfg, seconds)."""
    t0 = time.perf_counter()
    import kahlerlab.experiments  # noqa: F401
    from kahlerlab.config import parse_config
    cfg = parse_config(doc)
    return cfg, time.perf_counter() - t0


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _close(got, want):
    if got == want:
        return True
    if not (_is_number(got) and _is_number(want)):
        return False
    return math.isclose(float(got), float(want), rel_tol=REFERENCE_RTOL,
                        abs_tol=REFERENCE_ATOL)


def csv_mismatches(actual, reference):
    """Numeric cells of two CSV texts that differ beyond the tolerance.

    A column is numeric when every non-empty reference cell parses as a
    float; other columns (labels, statuses, seeds) are not compared.
    """
    got = list(csv.reader(io.StringIO(actual)))
    want = list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"shape or header differs: {len(got)} vs {len(want)} lines"]
    header = want[0] if want else []
    numeric = [all(row[c] == "" or _is_number(row[c]) for row in want[1:])
               for c in range(len(header))]
    out = []
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        for c, col in enumerate(header):
            if numeric[c] and not _close(g[c], w[c]):
                out.append(f"row {i} {col}: {g[c]} vs reference {w[c]}")
    return out


class Runs:
    """Timed study runs, with their failure accounting and the check that
    all runs of a pair (one config) write the same report bytes."""

    def __init__(self, outdir):
        from kahlerlab import experiments
        from kahlerlab.errors import KahlerlabError
        self._experiments = experiments
        self._error = KahlerlabError
        self.outdir = str(outdir)
        self.attempted = 0
        self.failed = 0
        self.errors = set()
        self.fail_frac = None      # of the first run
        self.first = None          # (csv, json, svg) bytes of the first run
        self.flags = None
        self.identical = True
        self._pair_first = None

    def new_pair(self):
        """Later runs must repeat the bytes of the pair's first run."""
        self._pair_first = None

    def run(self, cfg):
        """One run_study + emit_report; returns its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = self._experiments.run_study(cfg)
            paths = self._experiments.emit_report(report, self.outdir)
        except self._error as exc:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            self.errors.add(type(exc).__name__)
            if self.fail_frac is None:
                self.fail_frac = 1.0
            return elapsed
        elapsed = time.perf_counter() - t0
        statuses = [row.get("status", "ok") for row in report["rows"]]
        if self.fail_frac is None:
            bad = sum(s != "ok" for s in statuses)
            self.fail_frac = bad / len(statuses) if statuses else 0.0
        triple = tuple(Path(paths[k]).read_bytes()
                       for k in ("csv", "json", "svg"))
        if self._pair_first is None:
            self._pair_first = triple
        elif triple != self._pair_first:
            self.identical = False
        if self.first is None:
            self.first = triple
            self.flags = report["flags"]
        return elapsed


class HostSpeed:
    """The kernel of ``calibrate.py``, run in its own interpreter and timed
    on request; a context manager that ends the interpreter on exit."""

    def __init__(self, env=None):
        self._env = env

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")], env=self._env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def time(self):
        """One run of the kernel; its wall time in seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def measure(name, seed, seconds, trace, workdir, smoke=False,
            min_pairs=MIN_PAIRS):
    """Set up, run pairs for ``seconds``, check outputs; a JSON-ready dict."""
    workdir = Path(workdir)
    cache_dir = workdir / "cache"
    doc = workloads.study_config(name, seed, cache_dir, smoke)
    cfg, _ = setup(doc)
    from kahlerlab import _kernels, config
    runs = Runs(workdir / "out")
    tracer = Tracer() if trace else None
    times = {"cold_s": [], "warm_s": [], "cold_wall_s": [], "warm_wall_s": [],
             "traced_cold_s": [], "traced_warm_s": [], "host_cal_s": []}

    def timed(kind, cfg, speed):
        """One untraced run, its wall time and its host-speed scaled time;
        the kernel time after one run is the one before the next."""
        wall = runs.run(cfg)
        times[kind + "_wall_s"].append(wall)
        if speed is not None:
            cal = times["host_cal_s"]
            cal.append(speed.time())
            times[kind + "_s"].append(wall * CAL_REF_S
                                      / ((cal[-2] + cal[-1]) / 2))

    pairs = 0
    with contextlib.ExitStack() as stack:
        # the traced run reports wall times only
        speed = None if trace else stack.enter_context(HostSpeed())
        if speed is not None:
            times["host_cal_s"].append(speed.time())
        t0 = time.perf_counter()
        while True:
            pair_doc = dict(doc, seed=doc["seed"] + [pairs]) if pairs else doc
            pair_cfg = config.parse_config(pair_doc) if pairs else cfg
            runs.new_pair()
            shutil.rmtree(cache_dir, ignore_errors=True)
            timed("cold", pair_cfg, speed)
            if tracer is None:
                timed("warm", pair_cfg, speed)
            else:
                shutil.rmtree(cache_dir, ignore_errors=True)
                with tracer.installed():
                    # through the module, so the tracer sees the call
                    traced_cfg = config.parse_config(pair_doc)
                    times["traced_cold_s"].append(runs.run(traced_cfg))
                    times["traced_warm_s"].append(runs.run(traced_cfg))
            pairs += 1
            elapsed = time.perf_counter() - t0
            if pairs >= min_pairs and elapsed + elapsed / pairs / 2 > seconds:
                break
    shutil.rmtree(cache_dir, ignore_errors=True)

    reference = "skipped"
    if not smoke and int(seed) == 0:
        if runs.first is None:
            reference = "no report to compare"
        else:
            want = (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")
            bad = csv_mismatches(runs.first[0].decode("utf-8"), want)
            reference = "ok" if not bad else "; ".join(bad[:5])

    import numpy
    import scipy
    return {
        "pairs": pairs,
        "measured_s": elapsed,
        **times,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "fail_frac": runs.fail_frac,
        "errors": sorted(runs.errors),
        "replay_identical": runs.identical and runs.first is not None,
        "reference": reference,
        "flags": runs.flags,
        "cal_ref_s": CAL_REF_S,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics(runs=pairs) if tracer else None,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": _kernels.active_backend(),
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="only time set-up in this interpreter")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, setup_s = setup(workloads.study_config(
            args.workload, args.seed, Path(args.workdir) / "cache"))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
