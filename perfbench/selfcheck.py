"""Quick self-check of the benchmark; about half a minute.

    python3 perfbench/selfcheck.py

For every workload it runs the reduced (``quick``) job list untraced and
traced and requires no failure, then runs it again with one frozen expected
value made wrong and requires that job to be counted as failed on every pass.
It also checks that BENCHMARK.json declares exactly the metrics the code
reports, and that the tracer refuses to install when a binding it wraps is
gone, rather than report that layer as taking no time.
"""
from __future__ import annotations

import json
import sys

import run
from tracer import Tracer, LAYER_METRICS


def check(ok: bool, what: str, problems: list) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    problems: list = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(spec["end_to_end"] and [(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END", problems)
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [m[:3] for m in LAYER_METRICS], "BENCHMARK.json per_layer matches LAYER_METRICS",
          problems)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS", problems)

    for workload in run.WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(workload, 7, 0.1, trace, size="quick")
            names = set(record["metrics"])
            expected = ({m[0] for m in LAYER_METRICS} if trace
                        else {m[0] for m in run.END_TO_END})
            check(record["failed"] == 0 and names == expected,
                  f"{workload} quick, trace {int(trace)}: {record['attempted']} jobs, "
                  f"{record['failed']} failed, {len(names)} metrics", problems)
        record = run.run_workload(workload, 7, 0.1, False, size="quick", corrupt=True)
        passes = len(record["passes"])
        first_job = next(iter(record["job_median_s"]))
        failed_jobs = {name for p in record["passes"] for name in p["failures"]}
        check(record["failed"] == passes and failed_jobs == {first_job},
              f"{workload} with a wrong expected value: {record['failed']} of "
              f"{record['attempted']} jobs failed, all of them {first_job}", problems)

    sys.path.insert(0, str(run.SRC))
    import rwedf.search  # noqa: F401  (loads the submodule)

    search = sys.modules["rwedf.search"]
    dedup = search._translation_classes
    del search._translation_classes
    tracer = Tracer()
    try:
        tracer.install()
        refused = False
    except LookupError:
        refused = True
    finally:
        tracer.uninstall()
        search._translation_classes = dedup
    check(refused, "tracer refuses to install without rwedf.search._translation_classes",
          problems)

    print("self-check " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
