"""Machine-speed probes.

The benchmark runs on shared 2-core VMs whose speed drifts by 20-40 % within
minutes, in CPU time as much as in wall time, which no amount of work in one
run averages away.  So each run also times two fixed probes that never touch
``qstsim`` and divides its times by ``median(probe) / reference``: the
metrics are seconds at the speed the VM had when the bounds were set.

- ``compute_probe``: a frozen imitation of the program's hot loops, a
  master-equation-like 4x4 update and closed-form-like outer products with
  scalar math; run in the runner process before every in-process job, so
  on the CPU the job gets.  It tracked the drift of
  both in-process workloads to 1-2 %, a plain matrix-product loop to 4 %.
- ``spawn_probe``: a fresh interpreter that imports numpy, like set-up and a
  cold CLI call; process start tracks the drift only about half as much as
  compute does, so it gets its own probe.  Run twice before every timed
  set-up spawn and once before every cold job.

A change to the program cannot move a probe.  Raw values and the factors are
printed beside the scaled ones and kept in the result file.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# medians on the 2-core Xeon VM where the bounds were set
COMPUTE_REFERENCE_S = 7.0e-3
SPAWN_REFERENCE_S = 0.165

_H = np.arange(16.0).reshape(4, 4) * (1 + 0.5j) / 16
_OPS = np.stack([np.eye(4, dtype=complex)] * 3)
_RATES = np.array([0.3, 0.2, 0.1])


def compute_probe() -> float:
    start = time.perf_counter()
    rho = np.eye(4, dtype=complex) / 4
    for i in range(120):
        drho = -1j * (_H @ rho - rho @ _H) + np.tensordot(_RATES, _OPS @ rho @ _OPS, axes=1)
        rho = rho + 1e-3 * drho
        amps = np.array([math.cos(i), -1j * math.sin(i), math.exp(-1e-3 * i)])
        kept = np.outer(amps, np.conj(amps)) * math.exp(-0.01 * i)
        float(np.real(np.vdot(amps, kept @ amps))) + float(np.max(np.abs(drho)))
    return time.perf_counter() - start


def spawn_probe() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def slowdown(probes, reference_s: float) -> float:
    """How much slower than the reference the machine ran, from the probes."""
    return statistics.median(probes) / reference_s
