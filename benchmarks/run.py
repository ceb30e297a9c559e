"""Benchmark of the kahlerlab study driver, one workload per call.

    python3 benchmarks/run.py --workload p1-zeros --seed 0 --seconds 25 \
        --trace 0

Each call runs one workload of ``workloads.py`` through the public driver
(``config.parse_config`` -> ``experiments.run_study`` ->
``experiments.emit_report``) in fresh interpreters started from this
checkout's ``src``, with OpenBLAS pinned to one thread:

* ``--trace 0`` times set-up in several fresh interpreters, then cold and
  warm runs in one more (see ``worker.py``), and reports the end-to-end
  metrics: the medians of set-up, cold and warm wall time, each scaled to a
  reference host speed (``worker.py`` says how), and the worker's peak
  resident memory.  The plain wall-time medians and the host speed are
  printed too.  The benchmark and every interpreter it starts run on one
  CPU, so that the host-speed kernel sees the load the studies see.
* ``--trace 1`` reports the per-layer metrics of ``tracer.py``, per
  cold+warm pair, and the tracing overhead.

Every call checks the outputs: the runs of each pair must write
byte-identical report triples (the cache-replay contract), and at seed 0
the numeric CSV columns must match ``reference/<workload>.csv`` (the CSV a
cold run writes at seed 0).  Report flags are printed but not gated on.
Failed cells (report rows whose status is not "ok", or every cell of a
study that raised) are printed as ``fail_frac``.  The last line of standard
output is the result as JSON.

The benchmark's own tests: ``python3 -m pytest benchmarks``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import per_layer_names
from worker import CAL_REF_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 3       # set-up interpreters
TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB"}
TRACE_TOTALS = {"trace.cold_s": "s", "trace.warm_s": "s",
                "trace.overhead_s": "s", "fail_frac": "ratio"}


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(args, env, deadline):
    """Run worker.py to completion and parse its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()),
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _setup_times(args, env, deadline):
    """Set-up times of fresh interpreters, each scaled to the reference host
    speed by the kernel times just before and just after it."""
    out = []
    with HostSpeed(env) as speed:
        before = speed.time()
        for _ in range(SETUP_PROBES):
            wall = _worker(args + ["--setup-only"], env, deadline)["setup_s"]
            after = speed.time()
            out.append(wall * CAL_REF_S / ((before + after) / 2))
            before = after
    return out


def metrics(raw, setups, trace):
    """The metrics of one call, from the worker's output and the set-up
    times of the probe interpreters."""
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(raw["cold_s"]),
            "warm_s": statistics.median(raw["warm_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        cold = statistics.median(raw["traced_cold_s"])
        values = dict(raw["layers"])
        values.update({
            "trace.cold_s": cold,
            "trace.warm_s": statistics.median(raw["traced_warm_s"]),
            "trace.overhead_s": cold - statistics.median(raw["cold_wall_s"]),
            "fail_frac": raw["fail_frac"],
        })
        units = dict(per_layer_names(), **TRACE_TOTALS)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark one kahlerlab study workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kahlerlab" / "__init__.py").is_file():
        print(f"error: no kahlerlab source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs_dir = ROOT / ".bench_run"
    workdir = runs_dir / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [] if args.trace else _setup_times(common, env, deadline)
        raw = _worker(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            runs_dir.rmdir()
        except OSError:
            pass

    env_record = dict(raw["env"], commit=_git_commit())
    correct = raw["replay_identical"] and raw["reference"] in ("ok",
                                                               "skipped")
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": metrics(raw, setups, args.trace)}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{raw['pairs']} cold/warm pairs in {raw['measured_s']:.1f} s")
    print("env " + json.dumps(env_record, sort_keys=True))
    flags = " ".join(f"{k}={v}" for k, v in sorted((raw["flags"]
                                                     or {}).items()))
    print(f"flags (reported, not gated): {flags or '-'}")
    print(f"check replay_identical={raw['replay_identical']} "
          f"reference={raw['reference']}")
    print(f"fail_frac {raw['fail_frac']:.6g} ratio"
          + (f" errors={','.join(raw['errors'])}" if raw["errors"] else ""))
    for name, m in result["metrics"].items():
        if name != "fail_frac":
            print(f"{name} {m['value']:.6g} {m['unit']}")
    if raw["host_cal_s"]:
        print(f"wall time, not scaled: cold "
              f"{statistics.median(raw['cold_wall_s']):.6g} s, warm "
              f"{statistics.median(raw['warm_wall_s']):.6g} s; host speed "
              f"kernel {statistics.median(raw['host_cal_s']):.6g} s "
              f"(reference {raw['cal_ref_s']} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
