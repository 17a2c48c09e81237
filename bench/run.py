"""curv4 benchmark: drives ``curv4.cli.main(argv)`` the way a script or a user
at a terminal does, one command after the other, and checks every output.

Usage, from the root of a checkout (no build step, no install):

    python3 bench/run.py --workload verify-oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --write out.json

Workloads (see ``workloads.py``): verify-oracle, scan-ensemble, analyze-mix.
The load is one closed-loop caller in one process with ``--workers 1``.

``--trace 0`` runs for ``--seconds`` after a warm-up and reports the
``end_to_end`` metrics of ``BENCHMARK.json``; set-up time comes from fresh
interpreters that only import curv4 and build its parser.  Times are
rescaled to a reference host speed, because the shared host's speed drifts
by tens of percent over minutes: command times by ``calibrate()``, set-up
times by interpreters that import only numpy.  The unscaled figures are in
the ``details`` line.

``--trace 1`` runs each command of a fixed list four times in a row in one
process (untraced, traced, traced, untraced) and reports the ``per_layer``
metrics from the first traced runs.  It checks that all four runs print the
same bytes and that the two traced runs count the same work.  Spans are
written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``details``, holds the per-class figures (such as
``analyze_oracle.p80_ms``) and the unscaled times.  ``--workload all`` runs
every workload both ways in fresh processes, prints those figures as a
table and, with ``--write``, records them with the machine description.

``failed`` counts the ops whose output failed a check.  An op that hit a
documented defect of the seed commit, within that defect's band, is counted
apart as ``known_defect_ops`` on the ``details`` line and in ``fail_frac``;
known-defect probes (see ``workloads.py``) run once per run, untimed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per untraced run; set-up time is their median.
SETUP_PROBES = 7
_PROBE = ("import sys, curv4.cli; curv4.cli.build_parser(); "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")
#: The same interpreter start with only numpy, curv4's one dependency.  Set-up
#: time is rescaled by it, because process start-up tracks the host's state
#: (page cache, spawn cost) more closely than calibrate() does.
_NUMPY_PROBE = "import sys, numpy; sys.stdout.write('ready\\n'); sys.stdout.flush()"

#: Typical times, on the host the benchmark was defined on (2-vCPU VM,
#: Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31), of calibrate() and of
#: starting an interpreter that imports numpy.
CAL_REF_S = 0.010
NUMPY_START_REF_S = 0.15

#: The held-out seed: later gain claims must also hold on it.  Never tune on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def calibrate() -> float:
    """Seconds taken by a fixed numpy kernel that shares no code with curv4,
    as the median of three timings.

    Its mix follows the workloads: a Python loop over 3x3 matrices (the
    Jacobi solver, the refine loop) and batched 4x4 work on 2048 frames (the
    coarse pass).  Timed next to each batch, it measures how fast the shared
    host is running at that moment.
    """
    return statistics.median(_calibration_kernel() for _ in range(3))


def _calibration_kernel() -> float:
    gen = np.random.Generator(np.random.Philox(key=1))
    start = time.perf_counter()
    a = np.eye(3)
    for _ in range(600):
        a = (a @ a.T + np.eye(3)) / 2.0
    for _ in range(4):
        x = gen.standard_normal((2048, 4, 4))
        np.linalg.norm(np.einsum("nij,nkj->nik", x, x), axis=-1)
    return time.perf_counter() - start


def _spawn_to_ready(code: str) -> float:
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def setup_seconds() -> tuple[list, list]:
    """Spawn-to-ready wall times of fresh interpreters that import curv4 and
    build the CLI parser, i.e. everything before the first command runs,
    each with the mean time of the numpy-only interpreters started just
    before and after it."""
    numpy_times = [_spawn_to_ready(_NUMPY_PROBE)]
    times = []
    for _ in range(SETUP_PROBES):
        times.append(_spawn_to_ready(_PROBE))
        numpy_times.append(_spawn_to_ready(_NUMPY_PROBE))
    return times, [(a + b) / 2.0 for a, b in zip(numpy_times, numpy_times[1:])]


def execute(argv: list) -> tuple:
    """One CLI command in this process: (exit code, stdout, stderr, seconds).

    An exception escaping ``main`` is a program defect; it is recorded as exit
    code None with its traceback, so the command counts as failed.
    """
    import curv4.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = curv4.cli.main(argv)
        except Exception:  # noqa: BLE001 - recorded and counted as a failure
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Run(NamedTuple):
    """What is kept of one command: its check, a digest of its exit code and
    output bytes (for the repeat comparisons), its time and output size.
    The output itself is dropped, so memory does not grow with run length."""

    outcome: object
    digest: str
    seconds: float
    bytes_out: int


def run_command(wl, cmd, check: bool = True) -> Run:
    """Execute one command and check its output right away.  The check is
    not part of the command's time."""
    rc, out, err, elapsed = execute(cmd.argv)
    digest = hashlib.sha256(repr((rc, out, err)).encode()).hexdigest()
    outcome = wl.check(cmd, rc, out, err) if check else None
    return Run(outcome, digest, elapsed, len(out.encode()))


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile.  Failed ops enter as +inf and rank last, so
    the percentile is inf when its rank falls among them."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _tally(cmds, runs) -> tuple:
    problems = [f"{' '.join(cmd.argv)}: {p}"
                for cmd, run in zip(cmds, runs) for p in run.outcome.problems]
    attempted = sum(cmd.ops for cmd in cmds)
    failed = sum(run.outcome.failed_ops(cmd) for cmd, run in zip(cmds, runs))
    known = sum(run.outcome.known_ops() for run in runs)
    return problems, attempted, failed, known


def run_probes(wl) -> tuple:
    """Run the workload's known-defect probes once: their problems, and how
    many of them hit the defect."""
    runs = [run_command(wl, cmd) for cmd in wl.probes]
    problems, _, _, known = _tally(wl.probes, runs)
    return problems, {"sent": len(runs), "hit_defect": known,
                      "errors": [k for run in runs for k in run.outcome.known]}


def run_untraced(wl, seconds: float) -> dict:
    setup, setup_numpy = setup_seconds()
    warm = [run_command(wl, wl.command(i), check=False) for i in range(wl.warmup)]
    cmds, runs, cals = [], [], [calibrate()]
    start = time.perf_counter()
    while not cmds or time.perf_counter() - start < seconds:
        for _ in range(wl.batch):
            cmds.append(wl.command(len(cmds)))
            runs.append(run_command(wl, cmds[-1]))
        cals.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, attempted, failed, known = _tally(cmds, runs)
    probe_problems, probes = run_probes(wl)
    problems += probe_problems
    outcomes = [run.outcome for run in runs]
    for i, (first, again) in enumerate(zip(warm, runs)):
        if first.digest != again.digest:
            problems.append(f"{' '.join(cmds[i].argv)}: output differs between repeats")
            failed += cmds[i].ops - outcomes[i].failed_ops(cmds[i])

    # The host's speed drifts by tens of percent over minutes.  Each time is
    # rescaled by CAL_REF_S over the calibration time measured around it, so
    # the metrics read as seconds on a host running calibrate() in CAL_REF_S.
    # Throughput is the median over batches (a command, or a deck of
    # requests), which a burst of contention moves less than a mean would.
    # An op that failed or hit a known defect is not done: it counts as
    # infinitely slow.
    latencies = {"all": [], "plain": [], "oracle": []}
    unscaled, rates, unscaled_rates = [], [], []
    for n, b in enumerate(range(0, len(cmds), wl.batch)):
        scale = CAL_REF_S / ((cals[n] + cals[n + 1]) / 2.0)
        busy = done = 0
        for i in range(b, b + wl.batch):
            cmd, dt = cmds[i], runs[i].seconds
            bad = outcomes[i].failed_ops(cmd) + outcomes[i].known_ops()
            busy += dt
            done += cmd.ops - bad
            per_op = [dt / cmd.ops] * (cmd.ops - bad) + [math.inf] * bad
            unscaled += per_op
            scaled = [t * scale for t in per_op]
            latencies["all"] += scaled
            latencies["oracle" if cmd.kind == "oracle" else "plain"] += scaled
        rates.append(done / (busy * scale))
        unscaled_rates.append(done / busy)

    metrics = {
        "setup_s": statistics.median(t * NUMPY_START_REF_S / n for t, n in zip(setup, setup_numpy)),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1e3 * percentile(latencies["all"], 50),
        "peak_rss_mb": peak_rss_mb,
    }
    # The end-to-end figures under the names the workloads are discussed by.
    named = {"setup_s": (metrics["setup_s"], "s"),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "fail_frac": ((failed + known) / attempted, "frac"),
             wl.rate_name: (metrics["ops_per_s"], "1/s")}
    if wl.name == "analyze-mix":
        for cls, prefix, tail in (("plain", "analyze", 90), ("oracle", "analyze_oracle", 80)):
            lat = latencies[cls]
            named[f"{prefix}.samples"] = (len(lat), "count")
            named[f"{prefix}.p50_ms"] = (1e3 * percentile(lat, 50), "ms")
            named[f"{prefix}.p{tail}_ms"] = (1e3 * percentile(lat, tail), "ms")
    details = {"workload": wl.name, "ops": attempted, "failed_ops": failed,
               "known_defect_ops": known,
               "known_defects": [k for oc in outcomes for k in oc.known][:20],
               "defect_probes": probes,
               "commands": len(cmds), "batches": len(rates),
               "busy_s": sum(run.seconds for run in runs),
               "calibration_ms": 1e3 * statistics.median(cals),
               "unscaled": {"setup_s": statistics.median(setup),
                            "ops_per_s": statistics.median(unscaled_rates),
                            "op_p50_ms": 1e3 * percentile(unscaled, 50)},
               "setup_probes_s": setup, "numpy_probes_s": setup_numpy, "named": named, "problems": problems[:20]}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def run_traced(wl, seconds: float, seed: int) -> dict:
    from spans import SPANNED, Tracer

    n = wl.trace_commands * max(1, round(seconds / 20))
    cmds = [wl.command(i) for i in range(n)]
    # Each command runs four times in a row: untraced, traced, traced again
    # (into a second tracer, for the count check), untraced.  The overhead
    # compares the two traced times with the two untraced ones around them,
    # which cancels a steady drift in host speed.
    tracer, tracer_again = Tracer(), Tracer()
    plain, traced, again, plain_again = [], [], [], []
    for i, cmd in enumerate(cmds):
        plain.append(run_command(wl, cmd))
        for tr, runs in ((tracer, traced), (tracer_again, again)):
            tr.request = i
            tr.install()
            try:
                runs.append(run_command(wl, cmd, check=False))
            finally:
                tr.uninstall()
        plain_again.append(run_command(wl, cmd, check=False))
    counts, self_ns, spans = tracer.counts, tracer.self_ns(), len(tracer.spans)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")

    problems, attempted, failed, known = _tally(cmds, plain)
    for cmd, a, b, c, d in zip(cmds, plain, traced, again, plain_again):
        if not a.digest == b.digest == c.digest == d.digest:
            problems.append(f"{' '.join(cmd.argv)}: traced output differs from untraced")
    if counts != tracer_again.counts:
        problems.append(f"counts differ between traced passes: {counts} vs {tracer_again.counts}")
    wall = sum(run.seconds for run in traced)
    untraced = sum(a.seconds + d.seconds for a, d in zip(plain, plain_again)) / 2.0
    attributed_ms = sum(self_ns.values()) / 1e6
    unattributed_ms = wall * 1e3 - attributed_ms
    if unattributed_ms < 0:
        problems.append(f"self times {attributed_ms} ms exceed the traced wall time")

    ops = attempted
    bytes_out = sum(run.bytes_out for run in plain)
    overhead_s = (wall + sum(run.seconds for run in again)) / 2.0 - untraced
    metrics = {}
    for label in SPANNED:
        metrics[f"{label}.self_ms_per_op"] = self_ns.get(label, 0) / 1e6 / ops
        metrics[f"{label}.calls_per_op"] = counts[label + ".calls"] / ops
    metrics.update({
        "verify.run_verification.self_ms": self_ns.get("verify.run_verification", 0) / 1e6,
        "verify.run_scan.self_ms": self_ns.get("verify.run_scan", 0) / 1e6,
        "numerics.random_frames.frames_per_op": counts["numerics.random_frames.frames"] / ops,
        "oracle.coarse_passes_per_op": counts["oracle.coarse_pass.calls"] / ops,
        "oracle.evaluations_per_op": counts["oracle.evaluations"] / ops,
        "oracle.converged_frac": (counts["oracle.converged"] / counts["oracle.results"]
                                  if counts["oracle.results"] else 0.0),
        "io.bytes_out_per_op": bytes_out / ops,
        "trace.wall_ms_per_op": wall * 1e3 / ops,
        "trace.unattributed_ms_per_op": unattributed_ms / ops,
        "trace.overhead_ms_per_op": overhead_s * 1e3 / ops,
    })
    oracle_ops = sum(cmd.ops for cmd in cmds if cmd.kind == "oracle")
    details = {"workload": wl.name, "ops": ops, "commands": n, "spans": spans,
               "known_defect_ops": known,
               "oracle_ops": oracle_ops,
               "coarse_passes_per_oracle_op": (counts["oracle.coarse_pass.calls"] / oracle_ops
                                               if oracle_ops else 0.0),
               "absent_layers": tracer.absent, "counts": dict(sorted(counts.items())),
               "traced_wall_ms": wall * 1e3, "self_ms_total": attributed_ms,
               "unattributed_ms": unattributed_ms,
               "untraced_ms": untraced * 1e3,
               "problems": problems[:20]}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def _declared(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import curv4

    if Path(curv4.__file__).resolve().parent != (SRC / "curv4").resolve():
        print(f"error: curv4 imported from {curv4.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            result = run_traced(wl, args.seconds, args.seed)
        else:
            result = run_untraced(wl, args.seconds)

    computed = result["metrics"]
    declared = _declared("per_layer" if args.trace else "end_to_end")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    details = result["details"]
    for problem in details["problems"]:
        print(f"problem: {problem}")
    # A percentile that lands among failed ops is inf: no result to report.
    unmeasurable = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if unmeasurable:
        print(f"error: too many failed ops to measure {unmeasurable} "
              f"({result['failed']} of {result['attempted']} failed)", file=sys.stderr)
        return 1
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {result['attempted']} ops, "
          f"{result['failed']} failed, {details['known_defect_ops']} hit a known defect, "
          f"correct {not details['problems']}")
    if "defect_probes" in details and details["defect_probes"]["sent"]:
        print(f"  known-defect probes: {details['defect_probes']['hit_defect']} of "
              f"{details['defect_probes']['sent']} hit the defect")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in details.get("named", {}).items():
        if name not in metrics:
            print(f"  {name} = {value:.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, both ways


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
    }


def run_all(args) -> int:
    from workloads import WORKLOADS

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
              "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
              "workloads": {w["name"]: w["why"] for w in _declared("workloads")},
              "counts": {}, "runs": {}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            details = json.loads(next(ln for ln in lines if ln.startswith("details "))[8:])
            record["runs"][f"{name}/trace{trace}"] = {**result, "details": details}
            ok &= result["correct"]
            print(f"{name} trace {trace}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} ops failed, "
                  f"{details['known_defect_ops']} hit a known defect")
            shown = details["named"] if trace == 0 else {
                key: (m["value"], m["unit"]) for key, m in result["metrics"].items()}
            for key, (value, unit) in shown.items():
                print(f"  {key} = {value:.6g} {unit}")
            if trace == 1:
                counts = {key: m["value"] for key, m in result["metrics"].items()
                          if m["unit"] == "count"}
                counts["coarse_passes_per_oracle_op"] = details["coarse_passes_per_oracle_op"]
                record["counts"][name] = counts
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="curv4 benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None,
                        help="with --workload all: write the results and machine here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if not (SRC / "curv4" / "__init__.py").is_file():
        print(f"error: no curv4 sources under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
