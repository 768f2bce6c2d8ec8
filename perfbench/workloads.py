"""The benchmark's workloads: the command line of one job, how many jobs a
run needs at least, and the values a correct job reproduces.

Each job is one ``fvproj`` command in a fresh process.  Why each workload
was chosen is in README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "run" (time integration) or "verify"
    argv: tuple                 # fvproj command line, without output options
    steps_per_job: int          # timed operations per job
    min_jobs: int               # jobs per run, at least
    writes_output: bool = False
    # Final monitors of a correct run, recorded at the benchmark's first
    # commit: name -> value.  A job must match them to REFERENCE_RTOL.
    reference: dict = field(default_factory=dict)

    def command(self, out_dir: str) -> list:
        if self.kind == "verify":
            return [*self.argv, "--seed", str(VERIFY_SEED), "--out", out_dir]
        if self.writes_output:
            return [*self.argv, f"out={out_dir}"]
        return list(self.argv)


# Solver tolerances are 1e-12 (momentum) and 1e-13 (pressure); a change of
# solver that meets them moves the final norms far less than this.
REFERENCE_RTOL = 1e-6

# ``fvproj verify`` runs at the CLI's default seed whatever the benchmark
# seed: the number of power iterations it needs, and so its run time,
# depends on its seed by up to a factor of two (README.md, "Seeds").
VERIFY_SEED = 7

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="run-l5", kind="run",
            argv=("run", "--mesh", "acute:5", "case=manufactured-A",
                  "re=100", "k=0.01", "steps=11"),
            steps_per_job=10, min_jobs=3,
            reference={"u_l2": 0.24580390706163235, "p_l2": 0.49952595198450805}),
        Workload(
            name="run-l3-re1-out", kind="run",
            argv=("run", "--mesh", "acute:3", "case=manufactured-A",
                  "re=1", "k=0.01", "steps=200", "cadence=10"),
            steps_per_job=199, min_jobs=3, writes_output=True,
            reference={"u_l2": 0.1456359444112549, "p_l2": 1.1728897054818626}),
        Workload(
            name="verify-l2", kind="verify",
            argv=("verify", "--level", "2"),
            steps_per_job=10, min_jobs=2),
    )
}
