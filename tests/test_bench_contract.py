"""The benchmark's hold on fvproj.

A perfbench job wraps names of the package from outside (``scheme.advance``,
``scheme.momentum_step``, ``analysis.run_all``, ``linalg.SolverError``,
...), so a rename or a new call shape breaks the benchmark while the
package's own tests still pass.  Two tiny jobs run here through
``perfbench/job.py`` in trace mode, which installs every hook that the timed
mode does and more.

Each job runs in its own interpreter: ``Job.install`` replaces module
globals of fvproj, which must not leak into this process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# registers one workload, then runs it as ``perfbench/job.py`` would
_DRIVER = """
import json, sys
sys.path.insert(0, "perfbench")
import job, workloads

name, kind, argv, writes = json.loads(sys.argv[1])
workloads.WORKLOADS[name] = workloads.Workload(
    name=name, kind=kind, argv=tuple(argv), steps_per_job=1, min_jobs=1,
    writes_output=writes)
sys.exit(job.main(["--workload", name, "--mode", "trace",
                   "--t-spawn", str(job.clock()), "--workdir", sys.argv[2],
                   "--result", sys.argv[3]]))
"""


def _traced_job(tmp_path, name, kind, argv, writes_output=False):
    result = tmp_path / "result.json"
    spec = json.dumps([name, kind, list(argv), writes_output])
    env = dict(os.environ, FVPROJ_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, spec, str(tmp_path / "work"), str(result)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def _assert_clean(out):
    assert out["exit_code"] == 0
    assert out["attempted"] > 0 and out["failed"] == 0
    assert out["missing_hooks"] == []


def test_run_job_binds(tmp_path):
    out = _traced_job(tmp_path, "contract-run", "run",
                      ("run", "--mesh", "acute:1", "case=manufactured-A",
                       "steps=4", "cadence=2"), writes_output=True)
    _assert_clean(out)
    # the start-up step is not a timed step: advance runs steps - 1 times
    assert out["attempted"] == 3
    assert out["div_max"] <= out["cert_tol"]
    assert out["counts"]["fields.project_p0_calls"] > 0
    # every momentum solve went through BiCGStab; nothing fell back
    assert out["counts"]["linalg.momentum_solves"] > 0
    assert out["counts"]["linalg.fallbacks"] == 0


def test_verify_job_binds(tmp_path):
    out = _traced_job(tmp_path, "contract-verify", "verify",
                      ("verify", "--level", "0"))
    _assert_clean(out)
    assert len(out["verify_csv_sha256"]) == 64
    assert out["counts"]["analysis.eig_applies"] > 0
    # verify solves no momentum system: its dual norms use the H factor, not
    # the ``solve`` that perfbench counts as a momentum solve (a Counter
    # dumped to JSON has no key for a count never incremented)
    assert out["counts"].get("linalg.momentum_solves", 0) == 0
