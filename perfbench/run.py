"""Closed-loop benchmark of diagonalis.

    python3 perfbench/run.py --workload finite_realize --seed 1 --seconds 30 --trace 0

One client in one process: the next instance starts only after the previous
one returned and its answer was checked.  Inputs come from ``--seed``; the
instances of a workload are whole rounds of a fixed class mix (see
``workloads.py``), repeated until ``--seconds`` of instance time have run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
instances twice, first plainly and then with every layer's public functions
wrapped in spans, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; a wrong answer makes the exit
code nonzero.  Reports and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = "1"
INSTANCE_LIMIT_S = 60.0
SETUP_SAMPLES = 3
WORKLOADS = ("finite_realize", "oracle_crosscheck", "symbolic_exact")
# The host's speed drifts by 10-20% over minutes (shared CPUs), which swamps
# run-to-run differences.  A fixed speed probe that does not touch
# diagonalis runs after every SPEED_EVERY_S of instance time, and the
# end-to-end times are reported at the speed at which the probe takes
# SPEED_REF_S: measured time * SPEED_REF_S / median(probe times).  The
# unscaled figures stay in the report.
SPEED_EVERY_S = 0.5
SPEED_REF_S = 0.0075

# numpy and diagonalis are imported lazily: set-up time is the import of the
# library by a fresh interpreter, and the BLAS thread cap must be set first.

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


class InstanceTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InstanceTimeout(f"instance exceeded {INSTANCE_LIMIT_S:.0f} s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: measure set-up in this fresh process and print it")
    return ap.parse_args(argv)


def set_up(workload):
    """Import diagonalis and warm each class once; returns (seconds, module)."""
    t0 = time.perf_counter()
    import diagonalis  # noqa: F401  (the import is what is timed)
    elapsed = time.perf_counter() - t0
    from perfbench import workloads as W
    for name, inputs in W.warmup_instances(workload):
        t0 = time.perf_counter()
        W.CLASSES[name].run(inputs)
        elapsed += time.perf_counter() - t0
    return elapsed, W


def probe_setup(workload):
    """Set-up time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Runs instances in order and keeps their latencies and outcomes."""

    def __init__(self, W, workload, seed):
        self.W = W
        self.workload = workload
        self.seed = seed
        self.round = W.round_of(workload)
        self.records = []   # (class, latency_s or None, Result or None, error)

    def run_one(self, index, rec=None):
        name, inputs = self.W.make_instance(self.workload, self.seed, index, self.round)
        op = self.W.CLASSES[name]
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
        try:
            if rec is not None:
                rec.instance = index
                rec.active = True
            t0 = time.perf_counter()
            out = op.run(inputs)
            latency = time.perf_counter() - t0
        except Exception as exc:  # any raise is a failed instance, with its reason kept
            return name, None, None, f"{type(exc).__name__}: {exc}"
        finally:
            if rec is not None:
                rec.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            result = op.check(inputs, out)
        except Exception as exc:  # an answer the checker cannot read is a wrong answer
            result = self.W.checks.wrong(f"unreadable answer: {type(exc).__name__}: {exc}")
        return name, latency, result, None

    def run_rounds(self, seconds, probes=None):
        """Whole rounds until at least ``seconds`` of instance time ran.

        With a ``probes`` list, the speed probe runs between instances after
        every SPEED_EVERY_S of instance time and its times are appended.
        """
        spent = since_probe = 0.0
        index = 0
        while spent < seconds or index % len(self.round):
            if probes is not None and (index == 0 or since_probe >= SPEED_EVERY_S):
                probes.append(speed_probe())
                since_probe = 0.0
            rec = self.run_one(index)
            self.records.append(rec)
            spent += rec[1] or 0.0
            since_probe += rec[1] or 0.0
            index += 1
        return spent

    def rerun(self, rec):
        """The same instances again (the traced pass)."""
        return [self.run_one(i, rec) for i in range(len(self.records))]


def speed_probe():
    """Seconds taken by fixed work that does not touch diagonalis: Fraction
    sums, small numpy calls and a plain loop, the mix the workloads run."""
    import numpy as np
    from fractions import Fraction
    a = np.arange(9.0).reshape(3, 3)
    a = a + a.T
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k * k + 1)
    for _ in range(300):
        np.linalg.eigh(a)
        np.diagonal(a @ a)
    x = 0
    for i in range(30000):
        x += i % 7
    return time.perf_counter() - t0


def summarize(records):
    lat = [r[1] for r in records if r[1] is not None and r[3] is None]
    failed = [(i, r) for i, r in enumerate(records) if r[3] is not None]
    unknown = [(i, r) for i, r in enumerate(records) if r[2] is not None and r[2].status == "unknown"]
    wrong = [(i, r) for i, r in enumerate(records) if r[2] is not None and r[2].status == "wrong"]
    return lat, failed, unknown, wrong


def percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def provenance():
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode; provenance only
        pass
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "machine": platform.machine()}


def per_class_p50(records, names):
    out = {}
    for name in names:
        lat = [r[1] for r in records if r[0] == name and r[1] is not None and r[3] is None]
        out[f"op.{name}.p50_ms"] = (percentile(lat, 50) * 1e3 if lat else 0.0, "ms")
    return out


def extras_max(records, key):
    vals = [r[2].extras[key] for r in records if r[2] is not None and key in r[2].extras]
    return max(vals) if vals else 0.0


def extras_sum(records, key):
    return sum(r[2].extras.get(key, 0) for r in records if r[2] is not None)


def timings(loop, spent, scale=1.0):
    """Throughput and latency percentiles, times multiplied by ``scale``."""
    lat = summarize(loop.records)[0]
    return {
        "throughput_inst_per_s": (len(lat) / (spent * scale), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3 * scale, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3 * scale, "ms"),
    }


def end_to_end(loop, spent, setup_samples, scale):
    _, failed, unknown, _ = summarize(loop.records)
    n = len(loop.records)
    return {
        **timings(loop, spent, scale),
        "decided_share": (1.0 - len(unknown) / n, "ratio"),
        "completed_share": (1.0 - len(failed) / n, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(W, loop, traced, rec, tracer, untraced_s, traced_s):
    n = len(traced)
    metrics = tracer.layer_metrics(rec, n)
    reach = extras_sum(traced, "reachable")
    metrics["oracle.found_share"] = (extras_sum(traced, "found") / reach if reach else 0.0, "ratio")
    metrics["constructors.residual_max_rel"] = (extras_max(traced, "residual_rel"), "ratio")
    metrics["jsonio.bytes_in"] = (extras_sum(traced, "bytes_in") / n, "B/inst")
    metrics["jsonio.bytes_out"] = (extras_sum(traced, "bytes_out") / n, "B/inst")
    metrics.update(per_class_p50(loop.records, sorted(W.CLASSES)))
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    metrics["trace.instances"] = (float(n), "count")
    return metrics


def report_lines(kind, items):
    for i, r in items:
        detail = r[3] if kind == "failed" else r[2].detail
        yield f"{kind}: {r[0]} #{i}: {detail}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diagonalis" / "__init__.py").is_file():
        sys.stderr.write(f"error: no diagonalis sources under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    setup, W = set_up(args.workload)
    if args.setup_probe:
        print(repr(setup))
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(parents=True, exist_ok=True)
    prov = provenance()
    loop = Loop(W, args.workload, args.seed)
    if args.trace == 0:
        samples = [setup] + [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        probes = []
        spent = loop.run_rounds(args.seconds, probes)
        scale = SPEED_REF_S / statistics.median(probes)
        metrics = end_to_end(loop, spent, samples, scale)
        traced = []
        extra = {"setup_samples_s": samples, "instance_s": spent, "speed_probes_s": probes,
                 "speed_scale": scale,
                 "unscaled": {k: v for k, (v, _) in timings(loop, spent).items()}}
    else:
        from perfbench import tracer
        untraced_s = loop.run_rounds(args.seconds / 2)
        rec = tracer.Recorder()
        undo = tracer.install(rec)
        try:
            traced = loop.rerun(rec)
        finally:
            tracer.uninstall(undo)
        traced_s = sum(r[1] or 0.0 for r in traced)
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer(W, loop, traced, rec, tracer, untraced_s, traced_s)
        extra = {"spans": len(rec.start), "untraced_s": untraced_s, "traced_s": traced_s}

    _, failed, unknown, wrong = summarize(loop.records)
    wrong += summarize(traced)[3]
    lines = [*report_lines("wrong", wrong), *report_lines("failed", failed),
             *report_lines("unknown", unknown)]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "instances": len(loop.records),
              "wrong": len(wrong), "failed": len(failed), "unknown": len(unknown),
              "details": lines, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    result = {"correct": not wrong, "attempted": len(loop.records),
              "failed": len(failed),
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
