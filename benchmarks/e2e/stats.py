"""Summary statistics and the results record of the end-to-end benchmark.

Every latency the benchmark reports is a trimmed mean, recorded beside the
median and the highest percentile that still has at least
:data:`TAIL_MIN_BEYOND` samples beyond it, with the sample count next to
it.  Run-to-run spread is the interquartile range as
``statistics.quantiles(values, n=4)`` computes it, as a share of the
median.  Run as a script, this module prints that spread over several
results records::

    python3 benchmarks/e2e/stats.py run-0.json run-1.json ...
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A percentile is only reported when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Percent of the samples a trimmed mean drops at each end.
TRIM_PERCENT = 10.0

#: Thread and affinity variables recorded (never set) by the benchmark.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "GOMP_CPU_AFFINITY", "KMP_AFFINITY")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation, as ``np.percentile``)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def trimmed_mean(values: Sequence[float], cut: float = TRIM_PERCENT) -> float:
    """Mean of ``values`` without their lowest and highest ``cut`` percent
    (``floor(n * cut / 100)`` samples at each end, as
    ``scipy.stats.trim_mean``).

    Unlike a median, it moves smoothly when a latency sample is a mixture
    of a fast and a slow mode of similar weight (a median then sits in the
    gap between them and jumps across it); unlike a mean, a burst of
    outliers moves it only through the samples it leaves inside the cut.
    """
    sample = np.sort(np.asarray(values, dtype=np.float64))
    drop = int(sample.size * cut / 100.0)
    return float(sample[drop:sample.size - drop].mean())


def supports_percentile(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` leave at least ten samples beyond the ``q``-th."""
    # Rounded: 10000 samples leave exactly 10 beyond the 99.9th, not 9.99...
    return round(n_samples * (100.0 - q) / 100.0, 6) >= TAIL_MIN_BEYOND


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` the sample size supports."""
    for q in TAIL_PERCENTILES:
        if supports_percentile(n_samples, q):
            return q
    return None


def tail(values: Sequence[float]) -> Dict[str, object]:
    """The highest supported percentile of ``values``, with the sample count."""
    q = tail_percentile(len(values))
    return {"percentile": q, "samples": len(values),
            "value": percentile(values, q) if q is not None else None}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]):
    """``(q1, q2, q3)`` exactly as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


# --------------------------------------------------------------------- #
# environment of a run
# --------------------------------------------------------------------- #
def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout at ``root``, read from ``.git`` without a subprocess.

    ``None`` when ``root`` is not a git work tree (an exported checkout).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> Dict[str, object]:
    """What the record needs to compare runs: commit, CPUs, versions, env."""
    return {
        "git_sha": git_sha(root),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }


# --------------------------------------------------------------------- #
# spread over runs
# --------------------------------------------------------------------- #
def spread(records: Sequence[dict]) -> Dict[Tuple[str, str, str], dict]:
    """``(workload, metric, unit) -> {median, q1, q3, relative_iqr, runs}``
    over the ``--out`` records of several runs."""
    values: Dict[Tuple[str, str, str], List[float]] = {}
    for record in records:
        for workload, outcome in record["workloads"].items():
            for name, metric in outcome["metrics"].items():
                key = (workload, name, metric["unit"])
                values.setdefault(key, []).append(metric["value"])
    summary = {}
    for key, runs in values.items():
        entry = {"median": median(runs), "runs": len(runs)}
        if len(runs) >= 2:
            q1, _, q3 = quartiles(runs)
            entry.update(q1=q1, q3=q3, relative_iqr=relative_iqr(runs))
        summary[key] = entry
    return summary


def main(paths: Sequence[str]) -> int:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    for (workload, name, unit), entry in sorted(spread(records).items()):
        line = (f"{workload} {name} median={entry['median']:.6g} {unit} "
                f"runs={entry['runs']}")
        if "relative_iqr" in entry:
            line += (f" q1={entry['q1']:.6g} q3={entry['q3']:.6g}"
                     f" iqr/median={entry['relative_iqr']:.3f}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
