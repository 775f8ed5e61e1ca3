"""Command line front end: verify, construct, search, simulate, report.

Exit codes: 0 success; 1 semantic failure (verify expectation mismatch,
construction error, search stopped by budget); 2 unusable input (bad flags,
unparseable file or descriptor, a value out of range), a file that cannot be
read or written, or memory that runs out.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .classify import classify
from .constructions import (
    complement_pair,
    cyclotomic_squares,
    desarguesian_star_partition,
    f21_fixture,
    heisenberg_partition,
    m2_edf,
    m2_gsedf,
    m2_sedf,
    nonzero_singletons,
    singletons_from_difference_set,
    subgroup_star_family,
    trivial_families,
    two_prime_power_construction,
)
from .errors import BudgetExceeded, GroupTooLarge
from .family import DisjointFamily, count_matrix
from .files import (
    family_to_dict,
    frac_str,
    parse_frac,
    profile_to_csv,
    read_family,
    write_families_jsonl,
    write_family,
)
from .groups import FiniteGroup, Subgroup, closure, group_from_descriptor
from .search import SearchSpec, enumerate_families
from .simulate import play, play_best_response, play_random_delta


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_group(text: str) -> FiniteGroup:
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad group descriptor: {exc}", 2)
    try:
        return group_from_descriptor(desc)
    except GroupTooLarge as exc:
        raise CliError(str(exc), 2)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad group descriptor: {exc}", 2)


def _parse_int_list(text: str, what: str) -> List[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}", 2)


def _parse_frac_list(text: str, what: str):
    try:
        return tuple(parse_frac(t) for t in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}", 2)


def _load_family(path):
    try:
        return read_family(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2)
    except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        raise CliError(f"{path}: {exc}", 2)


# verify

def cmd_verify(args) -> int:
    family, weights, metadata = _load_family(args.path)
    if args.weights:
        weights = _parse_frac_list(args.weights, "--weights")
    report = classify(family, weights)
    # built before anything is printed or written: a matrix over its cell budget exits 2 here
    csv = profile_to_csv(count_matrix(family)) if args.profile_csv else None
    data = report.to_json_dict()
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            print(f"{key} = {value}")
    if csv is not None:
        with open(args.profile_csv, "w") as fh:
            fh.write(csv)
    expect = (metadata or {}).get("expect")
    if expect is not None:
        if not isinstance(expect, dict):
            raise CliError("metadata.expect must be an object", 2)
        bad = [k for k, v in sorted(expect.items()) if data.get(k) != v]
        for k in bad:
            print(f"expect mismatch: {k}: expected {expect[k]!r}, got {data.get(k)!r}",
                  file=sys.stderr)
        if bad:
            return 1
    return 0


# construct

def _built(args):
    """Dispatch on the operation name; returns [(suffix, family)]."""
    name = args.name
    params = args.params

    def ints(count):
        if len(params) != count:
            raise CliError(f"{name} takes {count} integer parameter(s)", 2)
        try:
            return [int(p) for p in params]
        except ValueError as exc:
            raise CliError(f"{name}: {exc}", 2)

    def group_arg():
        if not args.group:
            raise CliError(f"{name} needs --group", 2)
        return _parse_group(args.group)

    def set_arg():
        if not args.set:
            raise CliError(f"{name} needs --set", 2)
        return _parse_int_list(args.set, "--set")

    if name == "trivial_families":
        ints(0)
        whole, singles = trivial_families(group_arg())
        return [(".whole", whole), (".singletons", singles)]
    if name == "nonzero_singletons":
        ints(0)
        return [("", nonzero_singletons(group_arg()))]
    if name == "singletons_from_difference_set":
        ints(0)
        return [("", singletons_from_difference_set(group_arg(), set_arg()))]
    if name == "complement_pair":
        ints(0)
        return [("", complement_pair(group_arg(), set_arg()))]
    if name == "cyclotomic_squares":
        return [("", cyclotomic_squares(*ints(1)))]
    if name == "m2_sedf":
        return [("", m2_sedf(*ints(1)))]
    if name == "m2_edf":
        return [("", m2_edf(*ints(1)))]
    if name == "m2_gsedf":
        return [("", m2_gsedf(*ints(2)))]
    if name == "subgroup_star_family":
        ints(0)
        group = group_arg()
        if not args.subgroup:
            raise CliError(f"{name} needs --subgroup (repeatable)", 2)
        subs = [closure(group, _parse_int_list(g, "--subgroup")) for g in args.subgroup]
        return [("", subgroup_star_family(group, subs))]
    if name == "two_prime_power_construction":
        return [("", two_prime_power_construction(*ints(4)))]
    if name == "desarguesian_star_partition":
        return [("", desarguesian_star_partition(*ints(3)))]
    if name == "heisenberg_partition":
        return [("", heisenberg_partition(*ints(1)))]
    if name == "f21_fixture":
        ints(0)
        return [("", f21_fixture())]
    raise CliError(f"unknown construction {name!r}", 2)


def cmd_construct(args) -> int:
    try:
        outputs = _built(args)
    except CliError:
        raise
    except GroupTooLarge as exc:
        raise CliError(str(exc), 2)
    except (ValueError, ArithmeticError) as exc:
        raise CliError(f"{args.name}: {exc}", 1)
    out = args.out
    stem = out[:-5] if out.endswith(".json") else out
    written = []
    for suffix, family in outputs:
        path = out if not suffix else f"{stem}{suffix}.json"
        write_family(path, family)
        written.append((path, family))
    if args.json:
        print(json.dumps(
            [{"path": p, "n": f.n, "m": f.m, "sizes": list(f.sizes)} for p, f in written],
            indent=2))
    else:
        for path, family in written:
            sizes = ",".join(str(k) for k in family.sizes)
            print(f"wrote {path} (n={family.n}, m={family.m}, sizes={sizes})")
    return 0


# search

def cmd_search(args) -> int:
    group = _parse_group(args.group)
    sizes = tuple(_parse_int_list(args.sizes, "--sizes"))
    require = frozenset(t for t in (args.require or "").split(",") if t)
    weights = _parse_frac_list(args.weights, "--weights") if args.weights else None
    try:
        target_ell = parse_frac(args.ell) if args.ell else None
    except ValueError as exc:
        raise CliError(f"bad --ell: {exc}", 2)
    try:
        spec = SearchSpec(
            group=group, sizes=sizes, require=require, weights=weights,
            target_ell=target_ell, dedup=args.dedup, node_budget=args.budget,
            result_cap=args.cap,
        )
        result = enumerate_families(spec)
        code = 0
    except BudgetExceeded as exc:
        result = exc
        code = 1
    write_families_jsonl(args.out, result.families)
    stats = result.stats
    summary = {
        "families": len(result.families),
        "nodes": stats.nodes,
        "pruned": stats.pruned,
        "pruned_by": stats.pruned_by,
        "complete": stats.complete,
        "out": args.out,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        line = "families {families}  nodes {nodes}  pruned {pruned}".format(**summary)
        reasons = " ".join(f"{k}={v}" for k, v in stats.pruned_by.items() if v)
        if reasons:
            line += f" ({reasons})"
        print(f"{line}  complete {stats.complete}")
        print(f"wrote {args.out}")
    return code


# simulate

def cmd_simulate(args) -> int:
    family, _, _ = _load_family(args.family)
    if args.delta is not None:
        result = play(family, args.delta, args.trials, args.seed)
    elif args.best:
        result = play_best_response(family, args.trials, args.seed)
    else:
        result = play_random_delta(family, args.trials, args.seed)
    print(json.dumps({
        "delta": result.delta,
        "trials": result.trials,
        "successes": result.successes,
        "empirical_rate": result.empirical_rate,
        "analytic_rate": frac_str(result.analytic_rate),
        "z_score": result.z_score,
    }, indent=2))
    return 0


# report

_ROW_KEYS = ("path", "n", "m", "sizes", "ell", "classes", "e_hat", "r_bound", "r_optimal")


def _report_row(path) -> dict:
    try:
        family, weights, _ = read_family(path)
        report = classify(family, weights)
    except Exception as exc:  # per-file, non-fatal
        return {"path": str(path), "error": str(exc)}
    tags = []
    if report.trivial:
        tags.append("trivial")
    if report.edf is not None:
        tags.append(f"EDF({report.edf})")
    if report.sedf is not None:
        tags.append(f"SEDF({report.sedf})")
    if report.gsedf is not None:
        tags.append("GSEDF(" + ",".join(str(x) for x in report.gsedf) + ")")
    if report.wedf is not None:
        tags.append(f"WEDF({frac_str(report.wedf)})")
    if report.bimodal.holds:
        tags.append("bimodal")
    return {
        "path": str(path),
        "n": report.n,
        "m": report.m,
        "sizes": ",".join(str(k) for k in report.sizes),
        "ell": frac_str(report.rwedf) if report.rwedf is not None else "-",
        "classes": " ".join(tags) if tags else "-",
        "e_hat": frac_str(report.e_hat),
        "r_bound": frac_str(report.r_bound),
        "r_optimal": "yes" if report.r_optimal else "no",
    }


def cmd_report(args) -> int:
    rows = [_report_row(p) for p in args.paths]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if rows:
        good = [[str(r[k]) for k in _ROW_KEYS] for r in rows if "error" not in r]
        widths = [max([len(k)] + [len(row[c]) for row in good])
                  for c, k in enumerate(_ROW_KEYS)]
        print("  ".join(k.ljust(w) for k, w in zip(_ROW_KEYS, widths)))
        for r in rows:
            if "error" in r:
                print(f"{r['path'].ljust(widths[0])}  error: {r['error']}")
            else:
                cells = [str(r[k]) for k in _ROW_KEYS]
                print("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every command runs on one thread")
    common.add_argument("--seed", type=int, default=0, help="random seed")

    parser = argparse.ArgumentParser(
        prog="rwedf",
        description="Construct, verify, enumerate, and simulate disjoint "
                    "difference families over small finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="classify one family file")
    p.add_argument("path")
    p.add_argument("--weights", help="override weights, e.g. 1/2,1/2,1/2")
    p.add_argument("--profile-csv", help="also export the difference profile")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", parents=[common], help="build a named family")
    p.add_argument("name")
    p.add_argument("params", nargs="*", help="integer parameters of the construction")
    p.add_argument("--group", help="group descriptor JSON, for group-valued constructions")
    p.add_argument("--set", help="comma-separated element list, e.g. 0,1,3")
    p.add_argument("--subgroup", action="append",
                   help="comma-separated generator list; repeat per subgroup")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", parents=[common], help="exhaustive family enumeration")
    p.add_argument("--group", required=True, help="group descriptor JSON")
    p.add_argument("--sizes", required=True, help="set sizes, non-increasing, e.g. 3,3,2")
    p.add_argument("--require", help="comma-separated flags, e.g. rwedf,bimodal")
    p.add_argument("--ell", help="constant reciprocal sum to require, as p/q")
    p.add_argument("--weights", help="weights for the wedf flag")
    p.add_argument("--dedup", choices=("none", "translation"), default="none")
    p.add_argument("--budget", type=int, default=10**8, help="node budget")
    p.add_argument("--cap", type=int, default=None, help="stop after this many families")
    p.add_argument("--out", required=True, help="JSONL output path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo adversary game")
    p.add_argument("--family", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--delta", type=int, help="fixed shift element")
    mode.add_argument("--best", action="store_true", help="best-response shift")
    mode.add_argument("--random-delta", action="store_true",
                      help="uniform random shift per trial")
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", parents=[common], help="batch-classify many files")
    p.add_argument("paths", nargs="*")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
