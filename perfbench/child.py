"""One benchmark run in a fresh process: set up, then run passes of the job list.

Usage: python3 child.py CONFIG.json   (run.py writes the config and starts it)

Prints one JSON line when set-up is done (the parent times set-up up to it),
one with the reference kernel's times right after set-up, then, unless the
config asks for set-up only, one JSON line with every raw sample.

A pass runs the whole job list once.  Passes repeat until another one would
end past ``seconds``; untraced runs make at least two passes, so that every
job's output is compared across two runs of the same seed.  A traced run
alternates an untraced and a traced pass, at least one of each.  Before and
during every job a fixed reference kernel is timed, so that run.py can divide
out the machine's speed.
"""
from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


SPEED_SAMPLES = 5  # reference kernel runs right after set-up
TICK_S = 0.25  # a job's speed is sampled this often while it runs


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python workload that does not touch rwedf.

    Sized to about 20 ms, and kept to one small list at a time so that it
    leaves the peak RSS of the child alone.
    """
    start = perf_counter()
    total = 0
    for a in range(310):
        for x in [(a * 7 + b) % 1021 for b in range(310)]:
            if x & 1:
                total += x
    counts = {}
    for i in range(30_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    return perf_counter() - start


class SpeedMeter:
    """Times a job, and the reference kernel just before and while it runs.

    The machine's speed drifts within a job, so a sample taken before or
    after it does not tell how fast the job ran.  With ``ticking`` on, a
    SIGALRM handler runs the kernel every TICK_S seconds of the job, and the
    time spent in the handler is taken out of the job's time.  Traced passes
    run without ticks, so that no span contains a handler.
    """

    def __init__(self, ticking: bool):
        self.ticking = ticking
        self.samples: list = []
        self.spent = 0.0
        self.start = 0.0
        if ticking:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_kernel())
        self.spent += perf_counter() - start

    def begin(self) -> None:
        self.samples, self.spent = [reference_kernel()], 0.0
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.start = perf_counter()

    def end(self) -> float:
        """Stop the ticks; return the job's time without the handler's."""
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return perf_counter() - self.start - self.spent


def run_job(job, seen, meter):
    """Run one job; return its time and its failure messages."""
    meter.begin()
    try:
        output = job.call()
    except Exception:
        return meter.end(), [f"{job.name}: raised\n{traceback.format_exc()}"]
    elapsed = meter.end()
    try:
        bad = job.failures(output)
    except Exception:
        bad = [f"{job.name}: output could not be checked\n{traceback.format_exc()}"]
    fingerprint = repr(output)
    if seen.setdefault(job.name, fingerprint) != fingerprint:
        bad.append(f"{job.name}: output differs from the first pass with the same seed")
    return elapsed, bad


def run_pass(jobs, label, seen, tracer=None):
    """Run every job once; return its timings and the failed jobs' messages.

    ``ref[job]`` holds the reference kernel's times taken just before the job
    and, in an untraced pass, while it ran (see SpeedMeter).
    """
    times, failures, ref = {}, {}, {}
    meter = SpeedMeter(ticking=tracer is None)
    for job in jobs:
        if tracer is not None:
            tracer.run_id = f"{label}:{job.name}"
        times[job.name], bad = run_job(job, seen, meter)
        ref[job.name] = meter.samples
        if bad:
            failures[job.name] = bad
    return {"label": label, "traced": tracer is not None, "times": times, "ref": ref,
            "wall": sum(times.values()), "failures": failures,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def relative_wall(p) -> float:
    """A pass's time in units of the reference kernel timed around its jobs."""
    return sum(t / statistics.mean(p["ref"][name]) for name, t in p["times"].items())


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import rwedf

    if src not in Path(rwedf.__file__).resolve().parents:
        print(f"rwedf imported from {rwedf.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    tracer = Tracer() if cfg["trace"] else None
    jobs = workloads.setup(cfg["workload"], Path(cfg["work"]), cfg["seed"], cfg["size"],
                           build=tracer.build if tracer else None)
    if cfg.get("corrupt"):
        workloads.corrupt(jobs)
    emit({"event": "ready"})
    # The machine's speed right after set-up, so that run.py can scale the
    # set-up time to a fixed speed as it does the job times.
    emit({"event": "speed", "ref": [reference_kernel() for _ in range(SPEED_SAMPLES)]})
    if cfg.get("setup_only"):
        return 0

    seconds = cfg["seconds"]
    kinds = [False, True] if tracer else [False]
    min_rounds = 1 if tracer else 2
    seen = {}
    passes = []
    start = perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            label = f"p{len(passes)}"
            if traced:
                tracer.install()
                try:
                    passes.append(run_pass(jobs, label, seen, tracer))
                finally:
                    tracer.uninstall()
            else:
                passes.append(run_pass(jobs, label, seen))
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break

    layers = layers_per_pass = None
    if tracer is not None:
        untraced = statistics.median(relative_wall(p) for p in passes if not p["traced"])
        layers_per_pass = [tracer.layer_metrics(p["label"] + ":", relative_wall(p), untraced)
                           for p in passes if p["traced"]]
        layers = {k: statistics.median(m[k] for m in layers_per_pass)
                  for k in layers_per_pass[0]}
        tracer.write(cfg["spans"])
    emit({
        "event": "result",
        "jobs": [{"name": j.name, "families": j.families, "trials": j.trials} for j in jobs],
        "passes": passes,
        "layers": layers,
        "layers_per_pass": layers_per_pass,
        "installed": tracer.installed if tracer else None,
        "numpy": numpy.__version__,
        "rwedf": rwedf.__file__,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
