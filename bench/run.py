"""Benchmark of the ``qstsim`` command line, end to end and layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a qstsim checkout (it uses ``src/`` there and writes
only under ``bench/.work/``).  Each workload is a fixed job list made from
the seed (see ``jobs.py``); every job is one ``qstsim.cli.main`` argv, run by
one client with one job in flight.

The benchmark pins itself and all it starts to one CPU, times speed probes
between jobs (``calibration.py``) and reports times at a reference machine
speed, with the raw values beside them.

``--trace 0`` times the jobs untraced and prints the end-to-end metrics;
``--trace 1`` runs the same jobs untraced and then traced, and prints the
per-layer metrics.  Each output checks every job (``checks.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment and
each metric by name with its unit.  ``--workload all`` (the default) runs
every workload and names its metrics ``<workload>/<metric>``.
"""

import argparse
import collections
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import COMPUTE_REFERENCE_S, SPAWN_REFERENCE_S, slowdown, spawn_probe
from checks import check_job, is_malformed
from jobs import WORKLOADS, make_jobs
from tracer import import_times, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
SETUP_SPAWNS = 5  # set-up is timed this many times after one warm-up; the median is reported
TAIL = 75  # highest percentile with ten jobs beyond it in the smallest workload

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    f"job_s.p{TAIL}": "s",
    "jobs_per_s": "1/s",
    "cpu_s_per_job": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.interpreter_s": "s",
    "import.qstsim_s": "s",
    "import.scipy_s": "s",
    "cli.main.self_s": "s",
    "cli.parse_config.self_s": "s",
    "output.self_s": "s",
    "output.files": "count",
    "output.bytes": "B",
    "sweeps.self_s": "s",
    "sweeps.grid_points": "count",
    "protocol.run_protocol.calls": "count",
    "protocol.self_s": "s",
    "protocol.us_per_call": "us",
    "analytic.analytic_rho.calls": "count",
    "analytic.self_s": "s",
    "measurement.apply_measurement_qubit1.calls": "count",
    "measurement.apply_reversal_qubit2.calls": "count",
    "measurement.self_s": "s",
    "optimize.fevals": "count",
    "optimize.self_s": "s",
    "lindblad.integrate.calls": "count",
    "lindblad.samples": "count",
    "lindblad.self_s": "s",
    "core.generator_builds": "count",
    "core.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _relative(path: Path) -> str:
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------
# runner processes (in-process workloads, and set-up timing for all)


class Runner:
    """A ``runner.py serve`` process; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, stderr_path: Path, trace: bool = False):
        command = [sys.executable, *(["-X", "importtime"] if trace else []),
                   str(BENCH / "runner.py"), "serve", *(["--trace"] if trace else [])]
        self.stderr_path = stderr_path
        with open(stderr_path, "wb") as stderr:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=stderr, cwd=ROOT, env=_child_env())
        line = self.proc.stdout.readline()
        ready = time.monotonic()
        if not line.startswith(b"ready "):
            self.close()
            raise BenchError(f"runner did not start; see {_relative(stderr_path)}")
        self.setup_s = ready - spawned
        self.interpreter_s = float(line.split()[1]) - spawned

    def job(self, job_id: str, argv, probe: bool = True) -> dict:
        request = {"id": job_id, "argv": argv, "probe": probe}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError(f"runner died in {job_id}; see {_relative(self.stderr_path)}")
        return json.loads(line)

    def close(self) -> dict:
        """End the runner; returns its closing report (peak RSS)."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            tail = self.proc.stdout.read()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return json.loads(tail) if tail else {}


def measure_setup(work: Path) -> "tuple[float, float, Runner]":
    """Median spawn-to-ready time and the spawn probes' slowdown; the last
    runner is returned still waiting for jobs."""
    Runner(work / "warmup.err").close()  # fills __pycache__ and the file cache
    times, probes = [], []
    runner = None
    for attempt in range(SETUP_SPAWNS):
        if runner is not None:
            runner.close()
        probes += [spawn_probe(), spawn_probe()]
        runner = Runner(work / f"setup{attempt}.err")
        times.append(runner.setup_s)
    return statistics.median(times), slowdown(probes, SPAWN_REFERENCE_S), runner


# ---------------------------------------------------------------------------
# jobs


def _replay_config(original: dict, original_result: dict) -> str:
    """key=value lines from the original's meta.config, or from its flags if
    it wrote none (then the replay meets the same failure)."""
    for line in original_result["stdout"].splitlines():
        if line.endswith(".json"):
            try:
                config = json.loads((ROOT / line).read_text(encoding="utf-8"))["meta"]["config"]
            except (OSError, ValueError, KeyError):
                break
            return "".join(f"{key}={value}\n" for key, value in config.items())
    flags = original["argv"][1:]
    pairs = [f"{flags[i][2:]}={flags[i + 1]}\n" for i in range(0, len(flags), 2)]
    return f"command={original['argv'][0]}\n" + "".join(pairs)


def _argv(job: dict, jobs_by_id: dict, results: dict, work: Path) -> "list[str]":
    out_dir = ["--output-dir", _relative(work / job["id"])]
    if job["kind"] != "replay":
        return job["argv"] + out_dir
    original = jobs_by_id[job["replay_of"]]
    config = work / f"{job['id']}.cfg"
    config.write_text(_replay_config(original, results[original["id"]]), encoding="utf-8")
    return [original["argv"][0], "--config", _relative(config)] + out_dir


class ColdClient:
    """Runs each job as a fresh process, ``python -m qstsim.cli`` or, traced,
    the runner's ``child`` bootstrap under ``-X importtime``."""

    def __init__(self, work: Path, traced: bool):
        self.work, self.traced = work, traced
        self.peak_rss_mb = 0.0
        self.imports = []

    def job(self, job_id: str, argv, probe: bool = True) -> dict:
        probe_s = spawn_probe() if probe else None
        spans_path = self.work / f"{job_id}.spans.json"
        if self.traced:
            command = [sys.executable, "-X", "importtime", str(BENCH / "runner.py"), "child",
                       str(spans_path), "--", *argv]
        else:
            command = [sys.executable, "-m", "qstsim.cli", *argv]
        out_path, err_path = self.work / f"{job_id}.out", self.work / f"{job_id}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            started = time.perf_counter()
            proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=_child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        program_lines = [line for line in stderr.splitlines() if not line.startswith("import time:")]
        exc = None
        if proc.returncode == 1 and any(line.startswith("Traceback") for line in program_lines):
            exc = program_lines[-1]
        result = {"rc": None if exc else proc.returncode, "exc": exc, "wall_s": wall,
                  "cpu_s": usage.ru_utime + usage.ru_stime, "stdout": out_path.read_text(encoding="utf-8"),
                  "stderr": "\n".join(program_lines)[-400:], "probe_s": probe_s}
        if self.traced:
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            result["totals"] = child["totals"]
            self.imports.append({"import.interpreter_s": child["boot"] - spawned, **import_times(stderr)})
        return result

    def close(self) -> dict:
        return {"peak_rss_mb": self.peak_rss_mb}


def run_pass(workload: str, jobs, work: Path, traced: bool, runner=None) -> dict:
    """Run every job once, one in flight, each after a speed probe: the
    compute probe in the runner process itself, so on the CPU the job gets,
    or a spawn probe for cold jobs.

    ``loop_s`` is the time spent waiting on jobs: it leaves out the probes,
    replay config writing and the traced runner's span folding.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cold = workload == "cli_cold"
    client = ColdClient(work, traced) if cold else runner or Runner(work / "runner.err", trace=traced)
    jobs_by_id = {job["id"]: job for job in jobs}
    results, references = {}, {}
    loop_s = 0.0
    try:
        for job in jobs:
            argv = _argv(job, jobs_by_id, results, work)
            started = time.perf_counter()
            result = results[job["id"]] = client.job(job["id"], argv)
            loop_s += time.perf_counter() - started - result["probe_s"] - result.get("fold_s", 0.0)
        for job in jobs:
            if "reference" in job:
                out_dir = ["--output-dir", _relative(work / job["id"] / "reference")]
                references[job["id"]] = client.job(f"{job['id']}-reference", job["reference"] + out_dir,
                                                   probe=False)
    finally:
        closing = client.close()
    reference_s = SPAWN_REFERENCE_S if cold else COMPUTE_REFERENCE_S
    probes = [result["probe_s"] for result in results.values()]
    outcome = {"results": results, "references": references, "loop_s": loop_s,
               "slowdown": slowdown(probes, reference_s), **closing}
    if traced:
        if workload == "cli_cold":
            outcome["imports"] = client.imports
        else:
            log = client.stderr_path.read_text(encoding="utf-8", errors="replace")
            outcome["imports"] = [{"import.interpreter_s": client.interpreter_s, **import_times(log)}]
    return outcome


# ---------------------------------------------------------------------------
# checks and metrics


def check_pass(jobs, outcome: dict) -> dict:
    results, references = outcome["results"], outcome["references"]
    ok, malformed = 0, False
    reasons = collections.Counter()
    per_job = []
    for job in jobs:
        result = results[job["id"]]
        original = results.get(job.get("replay_of"))
        problems = check_job(job, result, ROOT, original, references.get(job["id"]))
        if not problems:
            ok += 1
        malformed |= any(is_malformed(p) for p in problems)
        reasons.update({f"{job['kind']}: {problems[0]}"} if problems else {})
        per_job.append({"id": job["id"], "kind": job["kind"], "argv": job["argv"], "wall_s": result["wall_s"],
                        "cpu_s": result["cpu_s"], "problems": problems})
    return {"ok": ok, "attempted": len(jobs), "correct": not malformed, "reasons": reasons, "jobs": per_job}


def end_to_end(outcome: dict, verdict: dict, setup_s: float) -> "dict[str, float]":
    results = list(outcome["results"].values())
    walls = [r["wall_s"] for r in results]
    return {
        "setup_s": setup_s,
        "job_s.p50": percentile(walls, 50),
        f"job_s.p{TAIL}": percentile(walls, TAIL),
        "jobs_per_s": len(results) / outcome["loop_s"],
        "cpu_s_per_job": sum(r["cpu_s"] for r in results) / len(results),
        "ok_ratio": verdict["ok"] / verdict["attempted"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> "dict[str, float]":
    totals = {}
    for result in traced["results"].values():
        for name, row in result["totals"].items():
            into = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for column, value in enumerate(row):
                into[column] += value
    metrics = layer_metrics(totals, len(traced["results"]))
    # import metrics are per process start: one per job when cold, one per runner otherwise
    for name in ("import.interpreter_s", "import.qstsim_s", "import.scipy_s"):
        metrics[name] = statistics.fmean(entry[name] for entry in traced["imports"])
    # both loops at reference speed, each scaled by its own pass's probes
    metrics["trace.overhead_ratio"] = (traced["loop_s"] / traced["slowdown"]) / (
        plain["loop_s"] / plain["slowdown"])
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def at_reference_speed(metrics: dict, units: dict, factors: dict) -> dict:
    """Times divided, rates multiplied by the probes' slowdown: ``setup_s``
    by the spawn probes' around set-up, the rest by the job probes'."""
    scaled = {}
    for name, value in metrics.items():
        factor = factors["setup"] if name == "setup_s" else factors["jobs"]
        scale = {"s": 1.0 / factor, "us": 1.0 / factor, "1/s": factor}.get(units[name], 1.0)
        scaled[name] = value * scale
    return scaled


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = make_jobs(workload, seed, seconds)
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    (base / "setup").mkdir(parents=True)
    if trace:
        plain = run_pass(workload, jobs, base / "plain", False)
        outcome = run_pass(workload, jobs, base / "traced", True)
        verdict = check_pass(jobs, outcome)
        raw, units = per_layer(plain, outcome), PER_LAYER_UNITS
        factors = {"jobs": outcome["slowdown"]}
    else:
        setup_s, setup_slowdown, runner = measure_setup(base / "setup")
        if workload == "cli_cold":
            runner.close()
            runner = None
        outcome = run_pass(workload, jobs, base / "plain", False, runner)
        verdict = check_pass(jobs, outcome)
        raw, units = end_to_end(outcome, verdict, setup_s), END_TO_END_UNITS
        factors = {"setup": setup_slowdown, "jobs": outcome["slowdown"]}
    return {"workload": workload, "verdict": verdict, "units": units, "raw": raw, "slowdown": factors,
            "metrics": at_reference_speed(raw, units, factors),
            "totals": {job_id: r.get("totals", {}) for job_id, r in outcome["results"].items()}}


# ---------------------------------------------------------------------------
# environment and report


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _commit(), "seed": seed,
            "seconds": seconds}


def report(run: dict, prefix: str) -> None:
    verdict = run["verdict"]
    print(f"{prefix}jobs: {verdict['attempted']} attempted, {verdict['ok']} ok,"
          f" outputs {'correct' if verdict['correct'] else 'INCORRECT'}")
    for reason, count in sorted(verdict["reasons"].items()):
        print(f"{prefix}not ok x{count}: {reason}")
    factors = ", ".join(f"{part} {factor:.4f}x" for part, factor in run["slowdown"].items())
    print(f"{prefix}speed probes: machine ran at {factors} the reference time;"
          " times below are scaled to the reference speed")
    for name, value in run["metrics"].items():
        unit = run["units"][name]
        print(f"{prefix}{name} = {value:.6g} {unit} (raw {run['raw'][name]:.6g} {unit})")


def _metric_json(run: dict, prefix: str = "") -> dict:
    return {f"{prefix}{name}": {"value": value, "unit": run["units"][name]}
            for name, value in run["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qstsim" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'qstsim'} not found; run from a qstsim checkout", file=sys.stderr)
        return 2

    # one CPU for this process and all it starts, so that each probe runs
    # on the CPU of the job it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(args.seed, args.seconds)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for workload in workloads:
        try:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        runs.append(run)
        (WORK / workload / "result.json").write_text(json.dumps({
            "environment": env, "workload": workload, "trace": args.trace,
            "verdict": {**run["verdict"], "reasons": dict(run["verdict"]["reasons"])},
            "slowdown": run["slowdown"], "raw": run["raw"], "metrics": _metric_json(run),
            "span_totals": run["totals"],
        }, indent=1) + "\n", encoding="utf-8")
        report(run, f"{workload}/")
    print("env " + json.dumps({**env, "workloads": list(workloads)}))
    metrics = {}
    for run in runs:
        metrics.update(_metric_json(run, f"{run['workload']}/" if len(runs) > 1 else ""))
    print(json.dumps({
        "correct": all(run["verdict"]["correct"] for run in runs),
        "attempted": sum(run["verdict"]["attempted"] for run in runs),
        "failed": sum(run["verdict"]["attempted"] - run["verdict"]["ok"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
