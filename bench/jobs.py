"""Seeded job lists for the three benchmark workloads.

A job is one ``qstsim`` command line.  The list depends only on the workload,
the seed and the run length: the same arguments give the same jobs in the
same order, so counts and ``ok_ratio`` repeat exactly between runs.

Each parameter is drawn by stratified sampling: a job kind with n jobs splits
the parameter's range into n equal-probability strata and takes one value
from the middle half of each.  Which strata of different parameters meet in
one job is a fixed layout per kind.  The rates, times and grid stops, which
set a job's cost and whether it meets a known defect (exp(-st) underflow,
stiff dephasing), also take fixed values within their strata; the seed
moves the state, measurement and reversal strengths within theirs and sets
the job order.  So the slow and the failing jobs are the same in every seed,
and the cost and failure count of a run hardly move with the seed.
"""

import math
import random

WORKLOADS = ("cli_cold", "closed_form_sweeps", "master_equation")

# Nominal wall seconds of one block of jobs on a 2-core Xeon VM; a run of
# ``seconds`` holds round(seconds / nominal) blocks.  They fix the job count,
# not a time budget: a faster program runs the same jobs in less time.
_BLOCK_SECONDS = {"cli_cold": 4.4, "closed_form_sweeps": 0.75, "master_equation": 3.7}


def block_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / _BLOCK_SECONDS[workload]))


class _Draws:
    """Stratified columns of uniforms in [0, 1), one column per parameter,
    laid out in a fixed order per kind; ``fixed`` columns are also jittered
    by the fixed layout, the others by the seeded ``rng``."""

    def __init__(self, rng: random.Random, n: int, kind: str):
        self.rng = rng
        self.n = n
        self.layout = random.Random(f"layout:{kind}:{n}")

    def column(self, fixed: bool) -> "list[float]":
        jitter = self.layout if fixed else self.rng
        u = [(i + 0.25 + 0.5 * jitter.random()) / self.n for i in range(self.n)]
        self.layout.shuffle(u)
        return u

    def uniform(self, lo: float, hi: float, fixed: bool = False) -> "list[float]":
        return [lo + (hi - lo) * u for u in self.column(fixed)]

    def log_uniform(self, lo: float, hi: float, fixed: bool = False) -> "list[float]":
        return [lo * (hi / lo) ** u for u in self.column(fixed)]


def _num(x: float) -> str:
    return f"{x:.6g}"


def _qubits(draws: _Draws) -> "list[list[str]]":
    """alpha in [0, 1] and complex beta = sqrt(1 - alpha^2) e^{i phi}."""
    flags = []
    for a, phase in zip(draws.uniform(0.0, 1.0), draws.uniform(0.0, 2.0 * math.pi)):
        b = math.sqrt(1.0 - a * a) * complex(math.cos(phase), math.sin(phase))
        flags.append(["--alpha", _num(a), "--beta", f"({_num(b.real)}{b.imag:+.6g}j)"])
    return flags


def _p_lists(draws: _Draws, count: int, hi: float) -> "list[str]":
    columns = [draws.uniform(0.0, hi) for _ in range(count)]
    return [",".join(_num(p) for p in row) for row in zip(*columns)]


def _job(kind: str, argv: "list[str]", **extra) -> dict:
    return {"kind": kind, "argv": argv, **extra}


def _cli_cold(rng: random.Random, n: int) -> "list[dict]":
    """Analytic protocol with every q-rule and analytic optimize-q, each
    original followed later by a replay of its meta.config."""
    originals = []
    for kind in ("protocol-formula", "protocol-fixed", "protocol-optimal", "optimize-q"):
        draws = _Draws(rng, n, kind)
        qubits = _qubits(draws)
        ps = draws.uniform(0.0, 1.0)
        ss = draws.log_uniform(1e-2, 1e3, fixed=True)
        qs = draws.uniform(0.0, 1.0)
        for i in range(n):
            if kind == "optimize-q":
                argv = ["optimize-q"]
            else:
                rule = kind.split("-")[1]
                argv = ["protocol", "--q-rule", rule]
                if rule == "fixed":
                    argv += ["--q", _num(qs[i])]
            argv += [*qubits[i], "--p", _num(ps[i]), "--s-over-g", _num(ss[i]), "--formats", "csv,json"]
            originals.append(_job(kind, argv))
    rng.shuffle(originals)
    sequence = list(originals)
    for original in originals:
        after = sequence.index(original) + 1
        sequence.insert(rng.randint(after, len(sequence)), {"kind": "replay", "replay_of": original})
    return sequence


def _closed_form_sweeps(rng: random.Random, n: int) -> "list[dict]":
    """Small fig2 and fig3 grids, one fig2 to two fig3 jobs."""
    jobs = []
    draws = _Draws(rng, n, "fig2")
    for qubit, ps, s, stop in zip(
        _qubits(draws), _p_lists(draws, 3, 0.95), draws.log_uniform(0.1, 10.0, fixed=True),
        draws.uniform(2.0, 8.0, fixed=True)
    ):
        argv = ["fig2", *qubit, "--p", ps, "--s-over-g", _num(s), "--grid-stop", _num(stop), "--grid-points", "121"]
        jobs.append(_job("fig2", argv))
    draws = _Draws(rng, 2 * n, "fig3")
    for qubit, ps, stop in zip(_qubits(draws), _p_lists(draws, 2, 0.95), draws.log_uniform(1.0, 100.0, fixed=True)):
        argv = ["fig3", *qubit, "--p", ps, "--grid-stop", _num(stop), "--grid-points", "8"]
        jobs.append(_job("fig3", argv))
    rng.shuffle(jobs)
    return jobs


def _numeric_jobs(kind: str, draws: _Draws) -> "list[dict]":
    n = draws.n
    qubits = _qubits(draws)
    ps = draws.uniform(0.0, 1.0)
    stops = draws.uniform(1.0, 3.0, fixed=True)
    if kind in ("fig4", "agree-protocol", "agree-optimize-q"):
        ss = draws.log_uniform(1e-2, 3.0, fixed=True)
    if kind == "fig4":
        gphi = [draws.log_uniform(1e-3, 1e3, fixed=True) for _ in range(2)]
    else:
        rates = [draws.log_uniform(1e-2, 3.0, fixed=True) for _ in range(3)]
        rates.append(draws.log_uniform(1e-3, 1e3, fixed=True))
    jobs = []
    for i in range(n):
        common = [*qubits[i], "--p", _num(ps[i])]
        if kind == "fig4":
            gphi_list = ",".join(_num(column[i]) for column in gphi)
            argv = ["fig4", *common, "--s-over-g", _num(ss[i]), "--gamma-phi-over-g", gphi_list,
                    "--grid-stop", _num(stops[i]), "--grid-points", "31"]
            jobs.append(_job(kind, argv))
            continue
        if kind.startswith("agree-"):
            command = ["protocol", "--q-rule", "formula"] if kind == "agree-protocol" else ["optimize-q"]
            base = [*command, *common, "--s-over-g", _num(ss[i]), "--gt", _num(stops[i])]
            jobs.append(_job(kind, base + ["--engine", "numeric"], reference=base + ["--engine", "analytic"]))
            continue
        unequal = []
        for flag, column in zip(_RATE_FLAGS, rates):
            unequal += [flag, _num(column[i])]
        if kind == "evolve":
            argv = ["evolve", *common, *unequal, "--grid-stop", _num(stops[i]), "--grid-points", "31"]
        else:
            command = ["protocol", "--q-rule", "optimal"] if kind == "protocol-optimal" else ["optimize-q"]
            argv = [*command, "--engine", "numeric", *common, *unequal, "--gt", _num(stops[i])]
        jobs.append(_job(kind, argv))
    return jobs


_RATE_FLAGS = ("--kappa-over-g", "--gamma1-over-g", "--gamma2-over-g", "--gamma-phi-over-g")

# jobs of each kind per block of twenty; the two agree-* kinds use equal
# rates without dephasing and are checked against the analytic engine
_MASTER_PLAN = (("evolve", 5), ("fig4", 4), ("protocol-optimal", 4), ("optimize-q", 5),
                ("agree-protocol", 1), ("agree-optimize-q", 1))


def _master_equation(rng: random.Random, n: int) -> "list[dict]":
    """Numeric-engine commands with unequal rates and stiff dephasing."""
    jobs = []
    for kind, per_block in _MASTER_PLAN:
        jobs += _numeric_jobs(kind, _Draws(rng, per_block * n, kind))
    rng.shuffle(jobs)
    return jobs


_JOB_LISTS = {
    "cli_cold": _cli_cold,
    "closed_form_sweeps": _closed_form_sweeps,
    "master_equation": _master_equation,
}


def make_jobs(workload: str, seed: int, seconds: float) -> "list[dict]":
    """The workload's job list; each job gets a stable id ``j0001``, ...

    A job is ``{"id", "kind", "argv"}``, plus ``replay_of`` (the id of an
    earlier job whose meta.config it replays; its argv is built at run time)
    or ``reference`` (an analytic-engine argv whose output must agree).
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = _JOB_LISTS[workload](rng, block_count(workload, seconds))
    for number, job in enumerate(jobs, start=1):
        job["id"] = f"j{number:04d}"
    for job in jobs:
        if job["kind"] == "replay":
            original = job.pop("replay_of")
            job["replay_of"] = original["id"]
            job["argv"] = None
    return jobs
