"""Benchmark of the rwedf toolkit: verify, search, census and simulate workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, seed 0

Run it from the repository root; it imports the package from ``src/``.  Each
run starts fresh child processes (see child.py): a few that only set up, for
the set-up time, then one that sets up and runs passes of the job list for
about ``--seconds``.  One client, closed loop, one thread: each job starts
when the previous one has returned.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see tracer.py).  Raw samples, the seed, the machine and the
versions go to ``.perfbench_work/<run>/result.json``; a traced run also writes
its spans there.  A job whose output fails its check counts in ``failed`` and
makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("verify", "search", "census", "simulate")
END_TO_END = [("setup_s", "s"), ("wall_rel", "ref"), ("peak_rss_mb", "MB")]
SETUPS = 9  # set-up samples per untraced run; setup_s is their median
REF_S = 0.02  # the speed setup_s is scaled to: the reference kernel's time
RUN_LIMIT_S = 170.0  # every child of one run is killed by then


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cfg: dict, limit: float):
    """Start one child; return (seconds until its set-up finished, the reference
    kernel's times right after set-up, the child's result or None)."""
    work = Path(cfg["work"])
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(cfg_path)],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.strip():
        raise RuntimeError(f"{cfg['workload']} child exited with code {code}")
    lines = [json.loads(line) for line in rest.splitlines() if line.strip()]
    result = lines[-1] if lines[-1]["event"] == "result" else None
    return setup_s, lines[0]["ref"], result


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        return None
    return out or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", corrupt: bool = False) -> dict:
    """One run of one workload; ``size`` and ``corrupt`` serve the self-check."""
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    base = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "corrupt": corrupt, "src": str(SRC),
            "spans": str(run_dir / "spans.jsonl")}
    deadline = perf_counter() + RUN_LIMIT_S
    setup_samples, setup_ref = [], []
    try:
        if not trace:
            for k in range(SETUPS - 1):
                cfg = dict(base, work=str(run_dir / f"setup{k}"), setup_only=True)
                setup_s, ref, _ = spawn(cfg, deadline - perf_counter())
                setup_samples.append(setup_s)
                setup_ref.append(ref)
        setup_s, ref, child = spawn(dict(base, work=str(run_dir / "inputs")),
                                    deadline - perf_counter())
        setup_samples.append(setup_s)
        setup_ref.append(ref)
    finally:
        for sub in run_dir.glob("setup*"):
            shutil.rmtree(sub)
    if child is None:
        raise RuntimeError(f"{workload} child printed no result")

    passes = child["passes"]
    untraced = [p for p in passes if not p["traced"]]
    names = [j["name"] for j in child["jobs"]]
    job_s = {n: statistics.median(p["times"][n] for p in untraced) for n in names}
    wall_s = sum(job_s.values())
    # The job list's time in units of the reference kernel: each job's time
    # over the kernel timed just before and just after it, so that the
    # machine's speed at that moment cancels out (see child.run_pass).
    wall_rel = sum(statistics.median(p["times"][n] / statistics.mean(p["ref"][n])
                                     for p in untraced) for n in names)
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS}
    else:
        # Each set-up time scaled to a machine on which the reference kernel
        # takes REF_S, by the kernel timed in the same child right after it.
        scaled = [t * REF_S / statistics.mean(ref) for t, ref in zip(setup_samples, setup_ref)]
        values = {"setup_s": statistics.median(scaled), "wall_rel": wall_rel,
                  # After the first pass: later passes can only add heap growth.
                  "peak_rss_mb": passes[0]["rss_kb"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    # Reported alongside, not as bounded metrics: raw wall_s drifts with the
    # machine's speed (wall_rel is gated instead), error_rate is 0 on a
    # correct program, and the rates are fixed multiples of 1 / wall_s.
    derived = {"wall_s": {"value": wall_s, "unit": "s"},
               "setup_raw_s": {"value": statistics.median(setup_samples), "unit": "s"},
               "error_rate": {"value": failed / attempted, "unit": "ratio"}}
    families = sum(j["families"] for j in child["jobs"])
    trials = sum(j["trials"] for j in child["jobs"])
    if families:
        derived["families_per_s"] = {"value": families / wall_s, "unit": "1/s"}
    if trials:
        derived["trials_per_s"] = {"value": trials / wall_s, "unit": "1/s"}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "commit": git_commit(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": child["numpy"],
        "rwedf": child["rwedf"], "attempted": attempted, "failed": failed,
        "metrics": metrics, "derived": derived,
        "setup_samples_s": setup_samples, "setup_ref_s": setup_ref,
        "job_median_s": job_s, "passes": passes,
        "layers_per_pass": child["layers_per_pass"],
        "traced_bindings": child["installed"],
    }
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(run_dir / "result.json")
    return record


def summarize(record: dict) -> None:
    """Human-readable lines: every metric with its unit, then any failures."""
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"nproc {record['nproc']}  python {record['python']}  numpy {record['numpy']}  "
          f"commit {record['commit']}")
    moves = {name: why for name, _, _, why in LAYER_METRICS}
    for name, m in {**record["metrics"], **record["derived"]}.items():
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"raw samples {record['path']}")
    for p in record["passes"]:
        for messages in p["failures"].values():
            for message in messages:
                print(f"  FAILED [{p['label']}] {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        summarize(record)
        results[name] = {"correct": record["failed"] == 0, "attempted": record["attempted"],
                         "failed": record["failed"], "metrics": record["metrics"]}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
