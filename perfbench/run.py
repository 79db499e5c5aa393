"""Benchmark of the ou-spectra CLI: one client, closed loop, serial.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole jobs (a fixed batch of CLI calls made in-process through
ou_spectra.cli.run, each report written to a file) until the jobs have taken
S seconds, then checks every report against the benchmark's own reference
computations. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Without tracing the metrics
are the end-to-end ones (set-up, wall and CPU time per job, peak RSS); with
--trace 1 every call into a traced layer is timed and the per-layer figures
are reported instead. See README.md.
"""

from __future__ import annotations

import os

# The benchmark fixes its own thread settings before numpy loads: BLAS runs
# single-threaded (two BLAS threads on two cores cost more wall time than one
# and make CPU time exceed wall time), and the simulation pool keeps the
# program's default size.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OU_SPECTRA_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_PROBES = 5  # fresh interpreters timed per run; the median is reported
SETUP_WARMUP = 1  # probes run first and discarded (bytecode compilation)

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(seconds from spawning a fresh interpreter until the first job could
    start, seconds spent importing ou_spectra.cli in it)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited with {proc.returncode}")
    return ready - start, json.loads(line)["import_s"]


def run_job(cli, wl, job_dir: Path, log) -> bool:
    """One job: every CLI call of the workload, each report written to a
    file, then the workload's own follow-up step, if it has one. True when
    every call exited 0 and nothing raised."""
    try:
        for label, argv in wl.calls(str(job_dir)):
            with open(job_dir / f"{label}.json", "w") as fh:
                code = cli.run(argv, stream=fh, err_stream=log)
            if code != 0:
                log.write(f"{label}: exit code {code}\n")
                return False
        if hasattr(wl, "after_calls"):
            wl.after_calls(str(job_dir))
    except Exception:  # a traceback out of the program is a failed job
        traceback.print_exc(file=log)
        return False
    return True


def check_job(wl, job_dir: Path, checked: dict, log) -> bool:
    """Check each report of a job. A report byte-identical to one already
    checked in this run needs no second check."""
    from workloads import CheckFailed, load_report

    label = "job"
    try:
        for label, _ in wl.calls(str(job_dir)):
            path = job_dir / f"{label}.json"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if checked.get(label) != digest:
                wl.check(label, load_report(str(path)), str(job_dir))
                checked[label] = digest
        label = "job"
        if hasattr(wl, "check_job"):
            wl.check_job(str(job_dir))
    except CheckFailed as e:
        log.write(f"check failed in {job_dir.name}, {label}: {e}\n")
        return False
    return True


def layer_metrics(jobs, probes_import, workers) -> dict:
    """Per-layer figures, each the mean over the traced jobs, so that the
    layer spans under a job plus cli.self_s add up to trace.job_s."""
    from spans import SPAN_NAMES

    n = len(jobs)

    def mean(f):
        return sum(f(j) for j in jobs) / n

    m = {"import_s": (statistics.median(probes_import), "s")}
    for name in SPAN_NAMES:
        m[f"{name}_s"] = (mean(lambda j: j["time"].get(name, 0.0)), "s")
    m["spectral.spectrum_points"] = (mean(lambda j: j["counts"].get("spectral.spectrum.points", 0)), "count")
    m["spectral.groups"] = (mean(lambda j: j["counts"].get("spectral.eigenspaces.groups", 0)), "count")
    m["spectral.basis_size"] = (mean(lambda j: j["counts"].get("spectral.eigenspaces.basis_size", 0)), "count")
    m["spectral.pairs"] = (mean(lambda j: j["counts"].get("spectral.orthogonality.pairs", 0)), "count")
    m["exact.nullspace_calls"] = (mean(lambda j: j["calls"].get("exact.nullspace", 0)), "count")
    paths = sum(j["counts"].get("simulate.ensemble.paths", 0) for j in jobs)
    ensemble_s = sum(j["time"].get("simulate.ensemble", 0.0) for j in jobs)
    m["simulate.paths_per_s"] = (paths / ensemble_s if ensemble_s else 0.0, "1/s")
    m["simulate.workers"] = (workers, "count")
    m["simulate.bytes_written"] = (mean(lambda j: j["counts"].get("simulate.save.bytes", 0)), "B")
    m["cli.report_bytes"] = (mean(lambda j: j["report_bytes"]), "B")
    m["cli.self_s"] = (mean(lambda j: j["self_s"]), "s")
    m["trace.job_s"] = (mean(lambda j: j["job_s"]), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ou_spectra" / "cli.py").is_file():
        print(f"no ou_spectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_WARMUP + SETUP_PROBES)]
    probes = probes[SETUP_WARMUP:]

    import ou_spectra.cli as cli
    from ou_spectra.simulate import worker_count

    wl = WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []  # (job dir, wall s, cpu s, all calls exited 0)
    with open(run_dir / "log.txt", "w") as log:
        measured = 0.0
        while not jobs or measured < args.seconds:
            job_dir = run_dir / f"job{len(jobs)}"
            job_dir.mkdir()
            gc.collect()  # every job starts without the previous job's garbage
            wall0, cpu0 = time.perf_counter(), time.process_time()
            with tracer.job(len(jobs)) if tracer else nullcontext():
                ok = run_job(cli, wl, job_dir, log)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            jobs.append((job_dir, wall, cpu, ok))
            measured += wall
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checked: dict = {}
        failed = sum(not (ok and check_job(wl, job_dir, checked, log)) for job_dir, _, _, ok in jobs)
        correct = failed == 0
        if correct and hasattr(wl, "check_run"):
            correct = wl.check_run(cli, str(jobs[-1][0]), log)

    if tracer:
        per_job = tracer.per_job()
        for j, (job_dir, *_rest) in zip(per_job, jobs):
            j["report_bytes"] = sum(
                (job_dir / f"{label}.json").stat().st_size for label, _ in wl.calls(str(job_dir))
            )
        metrics = layer_metrics(per_job, [imp for _, imp in probes], worker_count())
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = {
            "setup_s": (statistics.median(s for s, _ in probes), "s"),
            "job_s": (statistics.median(w for _, w, _, _ in jobs), "s"),
            "cpu_s": (statistics.median(c for _, _, c, _ in jobs), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    if correct:
        shutil.rmtree(run_dir)
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
