"""Arithmetic of the benchmark runner: the tail-percentile rule and
failure shares."""
from __future__ import annotations

# A tail percentile is reported only when at least this many samples lie
# above it, so that one slow sample cannot set it.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES of n samples
    above it."""
    if n < 2 * TAIL_SAMPLES:
        raise ValueError(f"{n} samples are too few for a tail percentile "
                         f"(need {2 * TAIL_SAMPLES})")
    return 100 * (n - TAIL_SAMPLES) // n


def fail_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; a job that attempted nothing
    is an error, not a zero share."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted
