"""The four benchmark workloads: seeded inputs, timed jobs and frozen answers.

Each workload is a fixed job list.  ``setup`` builds the inputs through the
public constructors and writes them under a work directory; the jobs then go
through the program's own entry points (``rwedf.cli.main`` for the CLI
workloads, ``rwedf.rwedf_census`` for the census) and re-read those inputs, so
no group table built during set-up is reused by a timed job.

Every job carries a frozen ``expect`` table.  ``Job.check`` compares the
job's output with it and returns one message per mismatch.

Sizes: ``full`` is the benchmark; ``quick`` is a reduced list with the same
shape that the self-check runs in a few seconds.  No group above order 4096
is built.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import rwedf
import rwedf.cli

# |z| above this fails a simulate job; for a correct sampler the chance per
# job is about 2e-9.
Z_BOUND = 6.0

# (label, constructor, args, keep only the first k sets, expected report).
# The report keys are those of `verify --json`.
_SPREAD_EXPECT = dict(bimodal=True, r_optimal=True)
VERIFY_FAMILIES = {
    "full": [
        ("spread-2-1-10", "desarguesian_star_partition", (2, 1, 10), None,
         dict(rwedf="1022", e_hat="1022/1023", r_bound="1022/1023", **_SPREAD_EXPECT)),
        ("spread-2-5-2", "desarguesian_star_partition", (2, 5, 2), None,
         dict(rwedf="32", e_hat="32/33", r_bound="32/33", **_SPREAD_EXPECT)),
        ("spread-3-1-6", "desarguesian_star_partition", (3, 1, 6), None,
         dict(rwedf="363", e_hat="363/364", r_bound="363/364", **_SPREAD_EXPECT)),
        ("heisenberg-11", "heisenberg_partition", (11,), None,
         dict(rwedf="132", e_hat="132/133", r_bound="132/133", **_SPREAD_EXPECT)),
        # The three smallest families go through one `report` call.
        ("m2-edf-30", "m2_edf", (30,), None,
         dict(rwedf="1/30", e_hat="1/60", r_bound="1/60", bimodal=False, r_optimal=True)),
        ("f21", "f21_fixture", (), None,
         dict(rwedf="21/20", e_hat="21/40", r_bound="21/40", bimodal=False, r_optimal=True)),
        ("spread-2-6-2-first4", "desarguesian_star_partition", (2, 6, 2), 4,
         dict(rwedf=None, e_hat="1/21", r_bound="3/65", bimodal=False, r_optimal=False)),
    ],
    "quick": [
        ("spread-2-1-5", "desarguesian_star_partition", (2, 1, 5), None,
         dict(rwedf="30", e_hat="30/31", r_bound="30/31", **_SPREAD_EXPECT)),
        ("spread-3-1-2", "desarguesian_star_partition", (3, 1, 2), None,
         dict(rwedf="3", e_hat="3/4", r_bound="3/4", **_SPREAD_EXPECT)),
        ("heisenberg-3", "heisenberg_partition", (3,), None,
         dict(rwedf="12", e_hat="12/13", r_bound="12/13", **_SPREAD_EXPECT)),
        ("m2-edf-4", "m2_edf", (4,), None,
         dict(rwedf="1/4", e_hat="1/8", r_bound="1/8", bimodal=False, r_optimal=True)),
        ("m2-edf-2", "m2_edf", (2,), None,
         dict(rwedf="1/2", e_hat="1/4", r_bound="1/4", bimodal=False, r_optimal=True)),
        ("f21", "f21_fixture", (), None,
         dict(rwedf="21/20", e_hat="21/40", r_bound="21/40", bimodal=False, r_optimal=True)),
        ("spread-2-2-2-first4", "desarguesian_star_partition", (2, 2, 2), 4,
         dict(rwedf=None, e_hat="1", r_bound="3/5", bimodal=False, r_optimal=False)),
    ],
}
REPORTED_TOGETHER = 3  # the last three families above share one `report` call

# (group descriptor, sizes, extra flags, expected hits, digest of the hits).
SEARCH_JOBS = {
    "full": [
        ({"kind": "cyclic", "n": 12}, "3,2,1,1,1,1,1,1", ["--require", "rwedf"], 12,
         "c4f230218dd585a443a290c0fe78c21f0d3854505770af4d8a7b9fff530c5e0e"),
        ({"kind": "cyclic", "n": 11}, "2,2,2,2", ["--dedup", "translation"], 1575,
         "a6d8a33c53b0c2422f4787092ae78518f0335d7b903dee79cdcaf16ac57a15ac"),
        ({"kind": "cyclic", "n": 16}, "4,4,2,2,1,1,1,1", ["--require", "bimodal"], 36,
         "53c30cb04ae1827d7a9a65cfa96df41ac9c87ee8b761260944d7f1303bb9666b"),
    ],
    "quick": [
        ({"kind": "cyclic", "n": 6}, "2,1,1,1", ["--require", "rwedf"], 6,
         "37bd8590f4ca5b85b0f08d6ee6bf6635f2abff1ec37995994875ad4464b64fac"),
        ({"kind": "cyclic", "n": 7}, "2,2", ["--dedup", "translation"], 15,
         "431b9b440e3b072012258a271818d279108a1b387ea70e342952f6263bd67a1f"),
        ({"kind": "cyclic", "n": 8}, "2,2,1,1", ["--require", "bimodal"], 12,
         "d68fecc959c354b871af3ea7774cf3a3ed57291bc8db5b5395affa8002ebebc8"),
    ],
}

# (group constructor, args, cross_check_every, expected census totals).
CENSUS_JOBS = {
    "full": [
        ("CyclicGroup", (10,), 0, dict(families=678569, rwedf=1374, cross_checked=0)),
        ("DihedralGroup", (4,), 7, dict(families=21146, rwedf=296, cross_checked=3020)),
    ],
    "quick": [
        ("CyclicGroup", (6,), 0, dict(families=876, rwedf=82, cross_checked=0)),
        ("DihedralGroup", (2,), 7, dict(families=51, rwedf=24, cross_checked=7)),
    ],
}

# (label, constructor, args, mode flags, trials, expected shift, exact rate).
SIMULATE_JOBS = {
    "full": [
        ("spread-2-1-9", "desarguesian_star_partition", (2, 1, 9), ["--random-delta"],
         1_000_000, None, "510/511"),
        ("heisenberg-7", "heisenberg_partition", (7,), ["--best"], 10_000_000, 1, "56/57"),
        ("f21", "f21_fixture", (), ["--delta", "5"], 2_000_000, 5, "21/40"),
    ],
    "quick": [
        ("spread-2-1-4", "desarguesian_star_partition", (2, 1, 4), ["--random-delta"],
         20_000, None, "14/15"),
        ("heisenberg-5", "heisenberg_partition", (5,), ["--best"], 20_000, 1, "30/31"),
        ("f21", "f21_fixture", (), ["--delta", "5"], 20_000, 5, "21/40"),
    ],
}


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def cli_call(argv: List[str]) -> CliOutput:
    """Run the console entry point in-process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rwedf.cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


@dataclass
class Job:
    """One timed call into the program, with the answer it must give."""

    name: str
    call: Callable[[], object]
    check: Callable[["Job", object], List[str]]
    expect: dict
    families: int = 0  # families classified or swept by one run of the job
    trials: int = 0  # Monte Carlo trials played by one run of the job

    def failures(self, output) -> List[str]:
        return [f"{self.name}: {msg}" for msg in self.check(self, output)]


def _mismatches(expect: dict, got: dict) -> List[str]:
    return [f"{k}: expected {v!r}, got {got.get(k)!r}"
            for k, v in expect.items() if got.get(k) != v]


def _cli_failures(out: CliOutput) -> List[str]:
    if out.code != 0:
        return [f"exit code {out.code}: {out.stderr.strip()[-300:]}"]
    try:
        json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return []


# -- verify -----------------------------------------------------------------

def _check_verify(job: Job, out: CliOutput) -> List[str]:
    return _cli_failures(out) or _mismatches(job.expect, json.loads(out.stdout))


def _report_values(row: dict) -> dict:
    """The `report` row in the vocabulary of `verify --json`."""
    return {
        "rwedf": None if row.get("ell") == "-" else row.get("ell"),
        "e_hat": row.get("e_hat"),
        "r_bound": row.get("r_bound"),
        "bimodal": "bimodal" in str(row.get("classes", "")).split(),
        "r_optimal": row.get("r_optimal") == "yes",
    }


def _check_report(job: Job, out: CliOutput) -> List[str]:
    bad = _cli_failures(out)
    if bad:
        return bad
    rows = json.loads(out.stdout)
    labels = list(job.expect)
    if len(rows) != len(labels):
        return [f"expected {len(labels)} rows, got {len(rows)}"]
    for label, row in zip(labels, rows):
        if "error" in row:
            bad.append(f"{label}: {row['error']}")
        else:
            bad += [f"{label}: {m}" for m in _mismatches(job.expect[label], _report_values(row))]
    return bad


def _setup_verify(work: Path, seed: int, size: str, build) -> List[Job]:
    rng = random.Random(seed)
    paths = {}
    for label, ctor, args, keep, expect in VERIFY_FAMILIES[size]:
        family = build(ctor, args)
        if keep is not None:
            family = rwedf.DisjointFamily(family.group, family.sets[:keep])
        # Right translation keeps every left difference, so `expect` holds
        # for every seed.
        family = family.translate(rng.randrange(family.n))
        path = work / f"{label}.json"
        rwedf.write_family(path, family, metadata={"expect": expect})
        paths[label] = str(path)
    entries = VERIFY_FAMILIES[size]
    alone, together = entries[:-REPORTED_TOGETHER], entries[-REPORTED_TOGETHER:]
    jobs = [
        Job(f"verify:{label}", lambda p=paths[label]: cli_call(["verify", p, "--json"]),
            _check_verify, dict(expect), families=1)
        for label, _, _, _, expect in alone
    ]
    report_argv = ["report", *(paths[e[0]] for e in together), "--json"]
    jobs.append(Job("report:" + "+".join(e[0] for e in together),
                    lambda: cli_call(report_argv), _check_report,
                    {e[0]: dict(e[4]) for e in together}, families=len(together)))
    return jobs


# -- search -----------------------------------------------------------------

def hits_digest(path: Path) -> str:
    """sha256 over the sorted hits, each as canonical {group, sets} JSON."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                data = json.loads(line)
                rows.append(json.dumps({"group": data["group"], "sets": data["sets"]},
                                       sort_keys=True, separators=(",", ":")))
    rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _check_search(job: Job, out: CliOutput, hits: Path) -> List[str]:
    bad = _cli_failures(out)
    if bad:
        return bad
    summary = json.loads(out.stdout)
    got = {"families": summary.get("families"), "complete": summary.get("complete"),
           "digest": hits_digest(hits)}
    return _mismatches(job.expect, got)


def _setup_search(work: Path, seed: int, size: str, build) -> List[Job]:
    jobs = []
    for k, (desc, sizes, flags, hits, digest) in enumerate(SEARCH_JOBS[size]):
        group = build("group_from_descriptor", (desc,))
        hits_path = work / f"hits-{k}.jsonl"
        argv = ["search", "--group", json.dumps(group.describe()), "--sizes", sizes,
                *flags, "--out", str(hits_path), "--json"]
        name = f"search:Z{group.order}:{sizes}:{' '.join(flags)}"
        jobs.append(Job(name, lambda a=argv: cli_call(a),
                        lambda job, out, p=hits_path: _check_search(job, out, p),
                        dict(families=hits, complete=True, digest=digest)))
    return jobs


# -- census -----------------------------------------------------------------

def _run_census(path: Path, index: int):
    with open(path) as fh:
        entry = json.load(fh)[index]
    group = rwedf.group_from_descriptor(entry["group"])
    return rwedf.rwedf_census(group, cross_check_every=entry["cross_check_every"])


def _check_census(job: Job, stats) -> List[str]:
    got = {k: getattr(stats, k, None) for k in
           ("families", "rwedf", "cross_checked", "violations", "cross_failures")}
    return _mismatches(job.expect, got)


def _setup_census(work: Path, seed: int, size: str, build) -> List[Job]:
    path = work / "census.json"
    entries = []
    jobs = []
    for index, (ctor, args, every, expect) in enumerate(CENSUS_JOBS[size]):
        group = build(ctor, args)
        entries.append({"group": group.describe(), "cross_check_every": every})
        jobs.append(Job(f"census:{ctor}{args}:every={every}",
                        lambda i=index: _run_census(path, i), _check_census,
                        dict(expect, violations=0, cross_failures=0),
                        families=expect["families"]))
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return jobs


# -- simulate ---------------------------------------------------------------

def _check_simulate(job: Job, out: CliOutput) -> List[str]:
    bad = _cli_failures(out)
    if bad:
        return bad
    result = json.loads(out.stdout)
    bad = _mismatches(job.expect, result)
    z = result.get("z_score")
    if not isinstance(z, (int, float)) or not abs(z) <= Z_BOUND:
        bad.append(f"|z| = {z!r} exceeds {Z_BOUND}")
    return bad


def _setup_simulate(work: Path, seed: int, size: str, build) -> List[Job]:
    rng = random.Random(seed)
    jobs = []
    for label, ctor, args, mode, trials, delta, rate in SIMULATE_JOBS[size]:
        family = build(ctor, args)
        family = family.translate(rng.randrange(family.n))
        path = work / f"{label}.json"
        rwedf.write_family(path, family)
        argv = ["simulate", "--family", str(path), *mode, "--trials", str(trials),
                "--seed", str(rng.randrange(2**31))]
        jobs.append(Job(f"simulate:{label}:{' '.join(mode)}", lambda a=argv: cli_call(a),
                        _check_simulate,
                        dict(delta=delta, trials=trials, analytic_rate=rate),
                        trials=trials))
    return jobs


_SETUP = {
    "verify": _setup_verify,
    "search": _setup_search,
    "census": _setup_census,
    "simulate": _setup_simulate,
}


def setup(workload: str, work: Path, seed: int, size: str = "full",
          build: Optional[Callable] = None) -> List[Job]:
    """Build and write the workload's inputs; return its job list.

    ``build(name, args)`` makes one input through the public constructor
    ``rwedf.<name>``; a tracer passes its own to time the constructions.
    """
    if build is None:
        def build(name, args):
            return getattr(rwedf, name)(*args)
    work.mkdir(parents=True, exist_ok=True)
    return _SETUP[workload](work, seed, size, build)


def corrupt(jobs: List[Job]) -> None:
    """Replace the first job's first expected value with one no output has."""
    job = jobs[0]
    key = next(iter(job.expect))
    if isinstance(job.expect[key], dict):
        inner = job.expect[key]
        inner[next(iter(inner))] = "<corrupted>"
    else:
        job.expect[key] = "<corrupted>"
