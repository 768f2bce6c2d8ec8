"""fvproj benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``src/fvproj``).  Each job is one ``fvproj`` command in a fresh process
(``perfbench/job.py``), one after another: a closed loop with one client.
BLAS pools are capped with ``FVPROJ_THREADS=1``.

``--trace 0`` runs jobs for ``--seconds`` (at least the workload's minimum
number) and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced job and two traced ones and reports the per-layer metrics; the
tracing overhead is the traced minus the untraced run time.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a correctness gate fails, 2 when the checkout holds no fvproj
source.  Results, with the environment, are also written to
``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
from spans import self_times
from workloads import REFERENCE_RTOL, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench")
THREADS = "1"
JOB_TIMEOUT_S = 150.0
MIN_SETUPS = 3          # set-up samples per run; short runs add set-up-only jobs
SELF_SUM_FLOOR_S = 1e-3

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  A "<span>_s" metric is the self time
# of the spans of that name (SPAN_METRICS names the exceptions); "count"
# metrics are exact and must repeat in every traced job.
PER_LAYER = {
    "process.start_s": "s", "process.import_s": "s",
    "mesh.build_s": "s", "mesh.validate_s": "s",
    "quadrature.points_s": "s",
    "fields.project_p0_s": "s", "fields.project_p0_calls": "count",
    "operators.convection_s": "s", "operators.divgrad_s": "s",
    "operators.divgrad_calls": "count",
    "linalg.pressure_solve_s": "s", "linalg.pressure_iters": "count",
    "linalg.pressure_solves": "count",
    "linalg.momentum_solve_s": "s", "linalg.momentum_iters": "count",
    "linalg.momentum_solves": "count",
    "linalg.fallbacks": "count", "linalg.unconverged": "count",
    "scheme.init_s": "s", "scheme.momentum_s": "s", "scheme.pressure_s": "s",
    "scheme.correct_s": "s", "scheme.monitor_s": "s",
    "vtkio.write_s": "s", "vtkio.bytes": "count", "scheme.monitors_csv_s": "s",
    "analysis.identities_s": "s", "analysis.convection_s": "s",
    "analysis.infsup_s": "s", "analysis.rates_s": "s",
    "analysis.stability_monitors_s": "s", "analysis.poincare_s": "s",
    "analysis.eig_applies": "count",
    "reference.oracle_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
    "step_s": "s", "step_s_tail": "s",
    "div_max": "1", "u_err_l2": "1", "p_err_l2": "1", "fail_share": "1",
}

# Per-layer metrics taken from the jobs' own timers and results, not spans.
REPORTED = ("step_s", "step_s_tail", "div_max", "u_err_l2", "p_err_l2", "fail_share")

# Span name -> metric, where the metric is not the span name plus "_s".
SPAN_METRICS = {"scheme.advance": "scheme.monitor_s", "cli.main": "cli.self_s"}


class GateFailure(Exception):
    pass


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none"     # a checkout without .git has no commit to report
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fvproj").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "FVPROJ_THREADS": THREADS, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env["FVPROJ_THREADS"] = THREADS
    return env


def spawn(workload, mode: str) -> dict:
    """Run one job to completion and return its result record."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        log_path = tmp / "log.txt"
        result_path = tmp / "result.json"
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "job.py"), "--workload", workload.name,
                 "--mode", mode, "--t-spawn", repr(t_spawn),
                 "--workdir", str(tmp / "out"), "--result", str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, env=_child_env())
            try:
                code = proc.wait(timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise GateFailure(f"{workload.name} {mode} job ran over {JOB_TIMEOUT_S}s")
            finally:
                # also on SIGTERM (see main): no job outlives this process
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.monotonic() - t_spawn
        if code != 0 or not result_path.exists():
            tail = "".join(log_path.read_text().splitlines(keepends=True)[-20:])
            raise GateFailure(f"{workload.name} {mode} job exited {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["wall_s"] = wall
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def warm_up() -> None:
    """Compile and cache the package's bytecode before anything is timed."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); import fvproj.cli"],
                   env=_child_env(), check=True, timeout=JOB_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


# -- correctness gates ------------------------------------------------------------

def check_job(workload, job: dict) -> list:
    """Gate failures of one completed job."""
    errors = []
    if job.get("exit_code") != 0:
        errors.append(f"fvproj exited {job.get('exit_code')}")
    if job["failed"]:
        errors.append(f"{job['failed']} of {job['attempted']} operations failed")
    if workload.kind == "run" and "div_max" in job:
        if not job["div_max"] <= job["cert_tol"]:
            errors.append(f"div_max {job['div_max']:.3e} above the certificate "
                          f"tolerance {job['cert_tol']:.1e}")
        for key, ref in workload.reference.items():
            rel = abs(job[key] - ref) / abs(ref)
            if not rel <= REFERENCE_RTOL:
                errors.append(f"final {key} {job[key]!r} differs from the recorded "
                              f"{ref!r} by {rel:.2e} (tolerance {REFERENCE_RTOL:.0e})")
    return errors


def check_repeats(workload, jobs: list) -> list:
    """Outputs that every job of a run must reproduce exactly."""
    errors = []
    if workload.kind == "verify":
        digests = {j.get("verify_csv_sha256") for j in jobs}
        if len(digests) != 1:
            errors.append(f"verify.csv differs between runs with the same seed: {digests}")
    traced = [j for j in jobs if "counts" in j]
    for j in traced[1:]:
        if j["counts"] != traced[0]["counts"]:
            diff = {k: (traced[0]["counts"].get(k), j["counts"].get(k))
                    for k in set(j["counts"]) | set(traced[0]["counts"])
                    if traced[0]["counts"].get(k) != j["counts"].get(k)}
            errors.append(f"exact counts differ between traced jobs: {diff}")
    return errors


# -- one run of one workload ----------------------------------------------------------

def _run_s(job):
    return job["t_return"] - job["t_spawn"]


def _setup_s(job):
    return job["t_setup"] - job["t_spawn"]


def measure(workload, seconds: float) -> tuple:
    deadline = time.monotonic() + seconds
    jobs = []
    # start another job only if one more, at the median job time, fits
    while len(jobs) < workload.min_jobs or (
            time.monotonic() + statistics.median(j["wall_s"] for j in jobs) <= deadline):
        jobs.append(spawn(workload, "time"))
    probes = [spawn(workload, "setup") for _ in range(MIN_SETUPS - len(jobs))]

    metrics = {
        "setup_s": statistics.median([_setup_s(j) for j in jobs + probes]),
        "run_s": statistics.median([_run_s(j) for j in jobs]),
        "peak_rss_mb": statistics.median([j["maxrss_kb"] / 1024.0 for j in jobs]),
    }
    notes = {"jobs": len(jobs), "setup_samples_s": [_setup_s(j) for j in jobs + probes]}
    notes.update(_reported(workload, jobs, workload.min_jobs))
    return jobs, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def _reported(workload, jobs, fewest_jobs) -> dict:
    """Per-operation times, failures and solution error of a run's jobs.

    The tail percentile comes from the fewest jobs the run can have, so it
    does not change when a faster program fits more jobs in a run.
    """
    ops = [t for j in jobs for t in j["op_times"]]
    p = stats.tail_percentile(workload.steps_per_job * fewest_jobs)
    tail = statistics.quantiles(ops, n=100, method="inclusive")[p - 1]
    out = {"step_s": statistics.median(ops), "step_s_tail": tail,
           "step_s_tail_percentile": p, "step_samples": len(ops),
           "fail_share": stats.fail_share(sum(j["attempted"] for j in jobs),
                                          sum(j["failed"] for j in jobs))}
    if "div_max" in jobs[0]:
        out["div_max"] = max(j["div_max"] for j in jobs)
        out["u_err_l2"] = jobs[0]["u_err_l2"]
        out["p_err_l2"] = jobs[0]["p_err_l2"]
    return out


def measure_traced(workload) -> tuple:
    untraced = spawn(workload, "time")
    traced = [spawn(workload, "trace") for _ in range(2)]
    overhead = statistics.median([_run_s(j) for j in traced]) - _run_s(untraced)

    per_job = []
    for j in traced:
        selfs = self_times(j["spans"])
        total = sum(selfs.values())
        if abs(total - _run_s(j)) > max(abs(overhead), SELF_SUM_FLOOR_S):
            raise GateFailure(f"self times sum to {total:.6f}s, traced run_s is "
                              f"{_run_s(j):.6f}s (overhead {overhead:.6f}s)")
        layer = {SPAN_METRICS.get(name, name + "_s"): t for name, t in selfs.items()}
        layer.update(j["counts"])
        per_job.append(layer)
    unknown = set(per_job[0]) - set(PER_LAYER)
    if unknown:
        raise GateFailure(f"spans or counts without a metric: {sorted(unknown)}")

    reported = _reported(workload, [untraced, *traced], 1 + len(traced))
    derived = {"trace.overhead_s": overhead, **{n: reported.get(n, 0.0) for n in REPORTED}}
    missing = set(traced[0]["missing_hooks"])
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif name == "analysis.eig_applies" and "fvproj.analysis._power_iteration" in missing:
            continue    # reported as absent once the power iteration is gone
        elif unit == "count":
            value = per_job[0].get(name, 0)
        else:
            value = statistics.median([m.get(name, 0.0) for m in per_job])
        metrics[name] = (value, unit)
    notes = {"traced_jobs": len(traced), "traced_run_s": _run_s(traced[0]),
             "untraced_run_s": _run_s(untraced), "missing_hooks": sorted(missing),
             "step_s_tail_percentile": reported["step_s_tail_percentile"],
             "step_samples": reported["step_samples"]}
    return [untraced, *traced], metrics, notes


def run_workload(workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    if trace:
        jobs, metrics, notes = measure_traced(workload)
    else:
        jobs, metrics, notes = measure(workload, seconds)
    errors = [f"job {i}: {e}" for i, j in enumerate(jobs) for e in check_job(workload, j)]
    errors += check_repeats(workload, jobs)
    line = {"correct": not errors,
            "attempted": sum(j["attempted"] for j in jobs),
            "failed": sum(j["failed"] for j in jobs),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, "notes": notes,
              "gate_failures": errors, "result": line, "jobs": jobs}
    (OUT / f"{workload.name}-trace{int(trace)}-seed{seed}.json").write_text(
        json.dumps(record))

    print(f"== {workload.name} (seed {seed}, trace {int(trace)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in notes.items():
        print(f"  [{name}] {value}")
    for e in errors:
        print(f"  GATE FAILED: {e}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; no workload has random input, see README.md")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "fvproj" / "__init__.py").is_file():
        print(f"no fvproj source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(root)
    print("environment " + json.dumps(env))
    warm_up()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            lines.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), env))
        except GateFailure as exc:
            print(f"GATE FAILED: {exc}", file=sys.stderr)
            return 1
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
