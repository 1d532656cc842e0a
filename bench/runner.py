"""Benchmark-side process that imports ``qstsim.cli`` and runs jobs in it.

    runner.py serve [--trace]        in-process workloads
    runner.py child SPANS -- ARGV    one traced cold CLI call

``serve`` prints ``ready <boot>`` once ``qstsim.cli`` is imported, then
answers each request line ``{"id", "argv", "probe"}`` on stdin with one JSON
result line, so the benchmark keeps exactly one job in flight.  With
``probe`` set it first times the compute probe (``calibration.py``) here, on
the CPU the job runs on, and reports it as ``probe_s``.  Traced, each job's
spans are folded into per-name totals when the job ends, and the time that
takes is reported as ``fold_s``.  At end of input it prints its peak RSS and
exits; a runner started only to time its set-up gets end of input at once.

``child`` stands in for ``python -m qstsim.cli ARGV`` under the tracer and
writes its folded spans and boot time to SPANS; the exit code is main's.

``<boot>`` is ``time.monotonic()`` at the first line of this file, which the
parent compares with its own clock at spawn to get the interpreter start.
"""

import time

BOOT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _run(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as error:  # an exception escaping main is a failed job; the run goes on
        exc = f"{type(error).__name__}: {error}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return {"rc": rc, "exc": exc, "wall_s": wall, "cpu_s": cpu,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-400:]}


def serve(trace: bool) -> None:
    import qstsim.cli

    print(f"ready {BOOT!r}", flush=True)
    from calibration import compute_probe

    tracer = None
    if trace:
        from tracer import Tracer, fold

        tracer = Tracer()
        tracer.install()
    for line in sys.stdin:
        request = json.loads(line)
        probe_s = compute_probe() if request["probe"] else None
        if tracer:
            tracer.job = request["id"]
        result = _run(qstsim.cli.main, request["argv"])
        result["probe_s"] = probe_s
        if tracer:
            start = time.perf_counter()
            result["totals"] = fold(tracer.take())
            result["fold_s"] = time.perf_counter() - start
        print(json.dumps(result), flush=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}), flush=True)


def child(spans_path: str, argv: "list[str]") -> int:
    import qstsim.cli
    from tracer import Tracer, fold

    tracer = Tracer()
    tracer.install()
    try:
        return qstsim.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"boot": BOOT, "totals": fold(tracer.take())}, handle)


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve("--trace" in sys.argv[2:])
    else:
        sys.exit(child(sys.argv[2], sys.argv[4:]))
