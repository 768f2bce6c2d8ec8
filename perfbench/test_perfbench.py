"""Tests of the benchmark's own arithmetic; no fvproj run is needed.

    python3 -m pytest perfbench -q
"""
from types import SimpleNamespace

import numpy as np
import pytest

import job
import run
import stats
from spans import Tracer, self_times
from workloads import WORKLOADS


# -- tail percentile -------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (20, 50), (30, 66), (100, 90), (101, 90), (597, 98), (1000, 99), (10000, 99),
])
def test_tail_percentile_keeps_ten_samples_above(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    assert n * (100 - p) >= 100 * stats.TAIL_SAMPLES
    assert n * (100 - (p + 1)) < 100 * stats.TAIL_SAMPLES or p == 99


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_tail_percentile_is_fixed_by_the_fewest_jobs_of_a_run():
    w = WORKLOADS["run-l5"]                 # 10 steps per job
    job = {"op_times": [float(i) for i in range(10)], "attempted": 10, "failed": 0}
    for jobs in (3, 4, 7):
        out = run._reported(w, [job] * jobs, fewest_jobs=3)
        assert out["step_s_tail_percentile"] == 66      # 30 steps, 10 above p66
        assert out["step_samples"] == 10 * jobs
        assert out["step_s"] == 4.5
    assert run._reported(w, [job] * 2, fewest_jobs=2)["step_s_tail_percentile"] == 50


def test_tail_matches_numpy_percentile():
    xs = list(np.random.default_rng(3).exponential(size=97))
    job = {"op_times": xs, "attempted": 97, "failed": 0}
    out = run._reported(WORKLOADS["run-l5"], [job], fewest_jobs=3)
    assert out["step_s_tail"] == pytest.approx(np.percentile(xs, 66))
    assert out["step_s"] == pytest.approx(np.median(xs))


# -- self times ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [["job", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["leaf", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0],
             ["a", 9.5, 10.0, 0]]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"job": 10 - 3 - 4 - 0.5, "a": 2.0 + 0.5,
                                   "leaf": 1.0, "b": 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_tracer_nests_recursive_spans():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tr.wrap(fact, "fact", count="fact_calls")
    assert traced(3) == 6
    assert tr.counts["fact_calls"] == 4
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 2]
    # each level is open for 2 ticks longer than the one inside it
    assert self_times(tr.spans) == {"fact": 7.0}


def test_tracer_rejects_out_of_order_close():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_unclosed_span_is_an_error():
    with pytest.raises(ValueError):
        self_times([["open", 0.0, None, -1]])


# -- failure counting ------------------------------------------------------------

def test_fail_share():
    assert stats.fail_share(10, 0) == 0.0
    assert stats.fail_share(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.fail_share(0, 0)
    with pytest.raises(ValueError):
        stats.fail_share(3, 4)


class _SchemeError(RuntimeError):
    pass


def _fake_fv(fail_at=None):
    def advance(state, config, ws):
        if state == fail_at:
            raise _SchemeError("certificate failed")
        return state + 1, None

    return SimpleNamespace(
        scheme=SimpleNamespace(SchemeError=_SchemeError, advance=advance),
        linalg=SimpleNamespace(SolverError=ArithmeticError))


def _steps(fv, n):
    state = 0
    for _ in range(n):
        state, _ = fv.scheme.advance(state, None, SimpleNamespace(cert_tol=1e-12))


def test_step_failure_counts_one_failed_operation():
    fv = _fake_fv(fail_at=3)
    j = job.Job(WORKLOADS["run-l5"], "time")
    j._install_step_timer(fv)
    with pytest.raises(_SchemeError):
        _steps(fv, 10)
    assert (j.attempted, j.failed, len(j.op_times)) == (4, 1, 3)
    assert j.cert_tol == 1e-12


def test_failed_monitor_fails_every_step_of_its_job():
    fv = _fake_fv()
    j = job.Job(WORKLOADS["run-l5"], "time")
    j._install_step_timer(fv)
    _steps(fv, 5)
    j.monitors = SimpleNamespace(ok=False)
    j.trajectory = None
    assert j._run_results(fv) == {"attempted": 5, "failed": 5}


def test_setup_job_stops_at_the_first_step():
    fv = _fake_fv()
    j = job.Job(WORKLOADS["run-l5"], "setup")
    j._install_step_timer(fv)
    with pytest.raises(job.SetupDone):
        _steps(fv, 3)
    assert j.t_setup is not None and j.attempted == 0


# -- gates -----------------------------------------------------------------------

def test_counts_must_repeat_exactly():
    w = WORKLOADS["run-l3-re1-out"]
    same = [{"counts": {"linalg.pressure_iters": 10}}] * 2
    assert run.check_repeats(w, same) == []
    differ = [{"counts": {"linalg.pressure_iters": 10}},
              {"counts": {"linalg.pressure_iters": 11}}]
    assert "linalg.pressure_iters" in run.check_repeats(w, differ)[0]


def test_verify_csv_must_repeat_exactly():
    w = WORKLOADS["verify-l2"]
    assert run.check_repeats(w, [{"verify_csv_sha256": "a"}] * 2) == []
    assert run.check_repeats(w, [{"verify_csv_sha256": "a"},
                                 {"verify_csv_sha256": "b"}])


def test_run_gate_checks_certificate_and_recorded_norms():
    w = WORKLOADS["run-l5"]
    good = {"exit_code": 0, "attempted": 10, "failed": 0, "div_max": 1e-14,
            "cert_tol": 1e-12, **w.reference}
    assert run.check_job(w, good) == []
    drifted = dict(good, u_l2=good["u_l2"] * (1 + 1e-5), div_max=2e-12)
    errors = run.check_job(w, drifted)
    assert len(errors) == 2
    assert any("div_max" in e for e in errors) and any("u_l2" in e for e in errors)
