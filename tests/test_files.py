import importlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwedf import family as family_module
from rwedf import groups
from rwedf import (
    BadDescriptor,
    BadWeight,
    CyclicGroup,
    DisjointFamily,
    difference_profile,
    family_from_dict,
    family_to_dict,
    family_to_jsonl_line,
    frac_str,
    group_from_descriptor,
    parse_frac,
    profile_to_csv,
    read_families_jsonl,
    read_family,
    write_families_jsonl,
    write_family,
)
from rwedf.cli import main
from rwedf.simulate import play_best_response

from helpers import HALF, mixed_z10, pair_z7, reference_counts, star_d10, weighted_z8


def test_frac_strings():
    assert frac_str(Fraction(1, 2)) == "1/2"
    assert frac_str(Fraction(4, 2)) == "2"
    assert parse_frac("7/6") == Fraction(7, 6)
    assert parse_frac("3") == 3
    assert parse_frac("0.25") == Fraction(1, 4)
    assert parse_frac(-2) == -2
    for bad in ("x", "1/0", "", "1e3", "2E-1", "1e999999999", 1e-05):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_family_file_round_trip(tmp_path):
    fam, weights = weighted_z8()
    meta = {"note": "standing fixture", "expect": {"rwedf": None}}
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_family(first, fam, weights, meta)
    back, w2, m2 = read_family(first)
    assert back.sets == fam.sets
    assert back.group.describe() == fam.group.describe()
    assert w2 == weights
    assert m2 == meta
    write_family(second, back, w2, m2)
    assert first.read_bytes() == second.read_bytes()


def test_family_file_key_order(tmp_path):
    fam, weights = weighted_z8()
    path = tmp_path / "f.json"
    write_family(path, fam, weights, {"k": 1})
    data = json.loads(path.read_text())
    assert list(data) == ["group", "sets", "weights", "metadata"]
    assert data["weights"] == ["1/2", "1/2", "1/2"]


def test_family_dict_errors():
    good = family_to_dict(mixed_z10())
    with pytest.raises(ValueError, match="missing 'group'"):
        family_from_dict({"sets": [[1]]})
    with pytest.raises(ValueError, match="missing 'sets'"):
        family_from_dict({"group": good["group"]})
    with pytest.raises(ValueError, match="non-empty list"):
        family_from_dict({"group": good["group"], "sets": []})
    with pytest.raises(ValueError, match="object"):
        family_from_dict(dict(good, metadata=[1]))
    with pytest.raises(ValueError, match="rational"):
        family_from_dict(dict(good, weights=["1/2", "nope", "1/2", "1/2"]))
    with pytest.raises(ValueError):
        family_from_dict([1, 2])
    with pytest.raises(ValueError, match="unknown keys \\['weigths'\\]"):
        family_from_dict(dict(good, weigths=["1/2"] * 4))


Z7 = {"kind": "cyclic", "n": 7}


@pytest.mark.parametrize(
    "sets",
    [[[0, True]], [[False], [1]], [[0, 1.0]], [[0, "1"]], [[0], 3], ["01"], [{"0": 1}], [[0, None]]],
    ids=["bool", "bool-alone", "float", "string", "int-set", "string-set", "dict-set", "null"],
)
def test_family_dict_sets_hold_integer_lists(sets):
    with pytest.raises(ValueError, match="integer element lists"):
        family_from_dict({"group": Z7, "sets": sets})


@pytest.mark.parametrize(
    "weights, error, match",
    [
        ("1/2", ValueError, "list of rationals"),
        (None, ValueError, "list of rationals"),
        (["1/2"], BadWeight, "need 2 weights"),
        (["1/2", "1/2", "1/2"], BadWeight, "need 2 weights"),
        (["2", "1"], BadWeight, "outside"),
        (["0", "1"], BadWeight, "outside"),
        (["-1/2", "1"], BadWeight, "outside"),
        ([True, "1"], ValueError, "rational"),
    ],
)
def test_family_dict_weights_are_checked_at_load(weights, error, match):
    with pytest.raises(error, match=match):
        family_from_dict({"group": Z7, "sets": [[0, 1], [3]], "weights": weights})


def test_family_dict_good_weights_load_as_fractions():
    fam, weights, _ = family_from_dict({"group": Z7, "sets": [[0, 1], [3]],
                                        "weights": ["1/2", 1]})
    assert weights == (Fraction(1, 2), Fraction(1))
    assert fam.sets == ((0, 1), (3,))


def test_family_dict_refuses_unknown_descriptor_keys():
    with pytest.raises(BadDescriptor, match="unknown keys"):
        family_from_dict({"group": dict(Z7, zz=1), "sets": [[0, 1, 3]]})


_leaves = (st.none() | st.booleans() | st.integers(-2, 40) | st.integers()
           | st.floats() | st.text(max_size=6))
_json = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=10,
)
_small = st.integers(-2, 12) | _json
_descriptors = st.deferred(lambda: st.fixed_dictionaries(
    {"kind": st.sampled_from(["cyclic", "dihedral", "elementary_abelian", "heisenberg",
                              "cayley_table", "product", "free"])},
    optional={
        "n": _small, "p": _small, "e": _small,
        "table": st.lists(st.lists(_small, max_size=4), max_size=4) | _json,
        "factors": st.lists(_descriptors, max_size=3) | _json,
        "zz": _json,
    },
))
_groups = st.sampled_from([
    Z7,
    {"kind": "dihedral", "n": 3},
    {"kind": "elementary_abelian", "p": 2, "e": 3},
    {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "heisenberg", "p": 2}]},
    {"kind": "cayley_table", "table": [[0, 1], [1, 0]]},
]) | _descriptors | _json
_documents = st.one_of(
    _json,
    st.fixed_dictionaries({}, optional={
        "group": _groups,
        "sets": st.lists(st.lists(_small, max_size=4), max_size=4) | _json,
        "weights": st.lists(st.sampled_from(["1/2", "1", "0", "3/2", "x"]) | _json,
                            max_size=4) | _json,
        "metadata": _json,
    }),
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_family_from_dict_fuzz(data):
    # any JSON document loads as a family or raises ValueError, nothing else
    try:
        family, weights, metadata = family_from_dict(data)
    except ValueError:
        return
    assert isinstance(family, DisjointFamily)
    assert weights is None or len(weights) == family.m
    assert metadata is None or isinstance(metadata, dict)


def test_jsonl_round_trip(tmp_path):
    fams = [mixed_z10(), star_d10(), weighted_z8()[0]]
    path = tmp_path / "out.jsonl"
    write_families_jsonl(path, fams)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == family_to_jsonl_line(fams[0])
    back = read_families_jsonl(path)
    assert [f.sets for f in back] == [f.sets for f in fams]
    assert [f.group.describe() for f in back] == [f.group.describe() for f in fams]
    path.write_text(path.read_text() + "\n")  # trailing blank line is fine
    assert len(read_families_jsonl(path)) == 3


def test_profile_csv_golden():
    fam = DisjointFamily.of(CyclicGroup(4), (0, 1), (2,))
    csv = profile_to_csv(difference_profile(fam).matrix)
    assert csv == "set,1,2,3\n1,0,1,1\n2,1,1,0\n"


# command line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_plain(tmp_path, capsys):
    path = tmp_path / "fam.json"
    write_family(path, mixed_z10())
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == ""
    assert "rwedf = 2" in out
    assert "r_optimal = True" in out


def test_cli_verify_json_and_csv(tmp_path, capsys):
    path = tmp_path / "fam.json"
    csv_path = tmp_path / "profile.csv"
    fam, weights = weighted_z8()
    write_family(path, fam, weights)
    code, out, _ = run(capsys, "verify", str(path), "--json",
                       "--profile-csv", str(csv_path))
    assert code == 0
    data = json.loads(out)
    assert data["wedf"] == "3"
    assert data["rwedf"] is None
    assert data["e_hat"] == "7/9"
    assert csv_path.read_text() == profile_to_csv(difference_profile(fam).matrix)


def test_cli_verify_weight_override(tmp_path, capsys):
    path = tmp_path / "fam.json"
    write_family(path, weighted_z8()[0])
    code, out, _ = run(capsys, "verify", str(path), "--json", "--weights", "1/2,1/2,1/2")
    assert code == 0 and json.loads(out)["wedf"] == "3"
    code, _, err = run(capsys, "verify", str(path), "--weights", "1/2,zz")
    assert code == 2 and "bad --weights" in err


def test_cli_verify_expectations(tmp_path, capsys):
    path = tmp_path / "fam.json"
    write_family(path, mixed_z10(), metadata={"expect": {"rwedf": "2", "bimodal": False}})
    code, _, err = run(capsys, "verify", str(path))
    assert code == 0 and err == ""
    write_family(path, mixed_z10(), metadata={"expect": {"rwedf": "3"}})
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "expect mismatch: rwedf" in err


def test_cli_verify_unusable_input(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    bad.write_text('{"group": {"kind": "cyclic", "n": 8}}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "sets" in err


def test_cli_construct(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, text, _ = run(capsys, "construct", "m2_gsedf", "2", "3", "--out", str(out))
    assert code == 0 and "wrote" in text
    fam, _, _ = read_family(out)
    assert fam.sets == ((0, 1), (2, 4, 6))


def test_cli_construct_two_outputs(tmp_path, capsys):
    out = tmp_path / "t.json"
    group = '{"kind": "cyclic", "n": 6}'
    code, _, _ = run(capsys, "construct", "trivial_families", "--group", group,
                     "--out", str(out), "--json")
    assert code == 0
    whole, _, _ = read_family(tmp_path / "t.whole.json")
    singles, _, _ = read_family(tmp_path / "t.singletons.json")
    assert whole.m == 1 and singles.m == 6


def test_cli_construct_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code, _, err = run(capsys, "construct", "no_such_thing", "--out", out)
    assert code == 2 and "unknown construction" in err
    code, _, err = run(capsys, "construct", "m2_gsedf", "2", "--out", out)
    assert code == 2 and "parameter" in err
    # domain error: 15 is not a prime power, the recipe itself fails
    code, _, err = run(capsys, "construct", "cyclotomic_squares", "15", "--out", out)
    assert code == 1
    code, _, err = run(capsys, "construct", "nonzero_singletons", "--group", "{oops",
                      "--out", out)
    assert code == 2 and "bad group descriptor" in err


def test_cli_search(tmp_path, capsys):
    out = tmp_path / "hits.jsonl"
    code, text, _ = run(
        capsys, "search", "--group", '{"kind": "cyclic", "n": 10}',
        "--sizes", "2,2,1,1", "--require", "rwedf", "--dedup", "translation",
        "--out", str(out), "--json")
    assert code == 0
    summary = json.loads(text)
    assert summary["families"] == 4 and summary["complete"] is True
    assert len(read_families_jsonl(out)) == 4


def test_cli_search_prunes_by_reason(tmp_path, capsys):
    argv = ["search", "--group", '{"kind": "cyclic", "n": 10}', "--sizes", "2,2,1,1",
            "--require", "rwedf", "--out", str(tmp_path / "hits.jsonl")]
    code, text, _ = run(capsys, *argv, "--json")
    assert code == 0
    summary = json.loads(text)
    assert summary["pruned_by"] == {"cell": 0, "column": 648, "coset": 0, "star": 0,
                                    "symmetry": 42, "infeasible": 0}
    assert summary["pruned"] == 690
    code, text, _ = run(capsys, *argv)
    assert code == 0 and "pruned 690 (column=648 symmetry=42)" in text


@pytest.mark.parametrize("weights", ["1/2,1/2", "1/2", "1/2,1/2,1/2"])
@pytest.mark.parametrize("require", [[], ["--require", "rwedf"]], ids=["free", "rwedf"])
def test_cli_search_weights_without_wedf_exit_2(tmp_path, capsys, weights, require):
    out = tmp_path / "hits.jsonl"
    code, _, err = run(capsys, "search", "--group", '{"kind": "cyclic", "n": 5}',
                       "--sizes", "2,2", *require, "--weights", weights, "--out", str(out))
    assert code == 2 and "wedf" in err
    assert not out.exists()


def test_cli_search_order_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "hits.jsonl"
    code, _, err = run(capsys, "search", "--group", '{"kind": "cyclic", "n": 65536}',
                       "--sizes", "1", "--out", str(out))
    assert code == 2 and "SEARCH_ORDER_LIMIT" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--cap", "-1"), ("--cap", "0"), ("--budget", "-3")])
def test_cli_search_bad_cap_or_budget_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "hits.jsonl"
    code, _, err = run(
        capsys, "search", "--group", '{"kind": "cyclic", "n": 10}',
        "--sizes", "2,2,1,1", "--require", "rwedf", "--out", str(out), flag, value)
    assert code == 2 and "error:" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "desc",
    ['[1, 2]', '{"kind": "cyclic", "n": 7.5}', '{"kind": "cyclic", "n": true}'],
    ids=["list", "float-order", "bool-order"],
)
def test_cli_bad_descriptor_exits_2(tmp_path, capsys, desc):
    with pytest.raises(BadDescriptor):
        group_from_descriptor(json.loads(desc))
    code, _, err = run(capsys, "search", "--group", desc, "--sizes", "1",
                       "--out", str(tmp_path / "hits.jsonl"))
    assert code == 2 and "bad group descriptor" in err
    path = tmp_path / "fam.json"
    path.write_text('{"group": %s, "sets": [[0]]}' % desc)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error:" in err


def test_cli_group_too_large_exits_2(tmp_path, capsys):
    # 2^30 elements: refused before any per-element data is built
    desc = '{"kind": "elementary_abelian", "p": 2, "e": 30}'
    path = tmp_path / "fam.json"
    path.write_text('{"group": %s, "sets": [[1], [2]]}' % desc)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "group too large" in err
    code, _, err = run(capsys, "search", "--group", desc, "--sizes", "1,1",
                       "--out", str(tmp_path / "hits.jsonl"))
    assert code == 2 and "group too large" in err


@pytest.mark.parametrize(
    "flags",
    [("--require", "rwedf"), ("--require", "sedf"), ("--ell", "0")],
    ids=["rwedf", "sedf", "ell"],
)
def test_cli_search_order_one_group_exits_2(tmp_path, capsys, flags):
    code, _, err = run(capsys, "search", "--group", '{"kind": "cyclic", "n": 1}',
                       "--sizes", "1", *flags, "--out", str(tmp_path / "hits.jsonl"))
    assert code == 2 and "order 1" in err


@pytest.mark.parametrize(
    "argv",
    [("cyclotomic_squares", "1048589"), ("two_prime_power_construction", "2", "21", "3", "1")],
    ids=["cyclotomic", "two-prime-power"],
)
def test_cli_construct_group_too_large_exits_2(tmp_path, capsys, argv):
    # refused from the order alone, before any factoring, power or field
    code, _, err = run(capsys, "construct", *argv, "--out", str(tmp_path / "x.json"))
    assert code == 2 and "group too large" in err


def test_cli_search_cap_ignores_threads(tmp_path, capsys):
    out = tmp_path / "capped.jsonl"
    code, text, _ = run(
        capsys, "search", "--group", '{"kind": "cyclic", "n": 8}', "--sizes", "3,3,2",
        "--cap", "3", "--threads", "4", "--out", str(out), "--json")
    assert code == 0
    summary = json.loads(text)
    assert summary["families"] == 3 and summary["complete"] is False
    assert len(read_families_jsonl(out)) == 3


def test_cli_search_budget_partial(tmp_path, capsys):
    out = tmp_path / "part.jsonl"
    code, text, _ = run(
        capsys, "search", "--group", '{"kind": "cyclic", "n": 8}',
        "--sizes", "3,3,2", "--budget", "60", "--out", str(out), "--json")
    assert code == 1
    summary = json.loads(text)
    assert summary["complete"] is False
    assert 0 < summary["families"] < 280
    assert len(read_families_jsonl(out)) == summary["families"]


def test_cli_search_bad_input(tmp_path, capsys):
    out = str(tmp_path / "x.jsonl")
    base = ["search", "--group", '{"kind": "cyclic", "n": 8}', "--out", out]
    code, _, err = run(capsys, *base, "--sizes", "3,a")
    assert code == 2 and "bad --sizes" in err
    code, _, err = run(capsys, *base, "--sizes", "2,3")
    assert code == 2 and "non-increasing" in err
    code, _, err = run(capsys, *base, "--sizes", "3,3", "--require", "sparkle")
    assert code == 2
    code, _, err = run(capsys, *base, "--sizes", "3,3", "--ell", "x")
    assert code == 2 and "bad --ell" in err


def test_cli_simulate_modes(tmp_path, capsys):
    path = tmp_path / "fam.json"
    write_family(path, weighted_z8()[0])
    code, out, _ = run(capsys, "simulate", "--family", str(path), "--delta", "4",
                       "--trials", "4000", "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 4 and data["analytic_rate"] == "2/3"
    assert data["trials"] == 4000
    code, out, _ = run(capsys, "simulate", "--family", str(path), "--best",
                       "--trials", "1000")
    assert json.loads(out)["delta"] == 1
    code, out, _ = run(capsys, "simulate", "--family", str(path), "--random-delta",
                       "--trials", "1000")
    data = json.loads(out)
    assert code == 0 and data["delta"] is None and data["analytic_rate"] == "16/21"
    code, _, err = run(capsys, "simulate", "--family", str(path), "--delta", "0")
    assert code == 2 and "non-identity" in err


def _pair_z7_file(tmp_path):
    path = tmp_path / "pair.json"
    write_family(path, pair_z7())
    return path


def _one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("weights, match", [("1/2", "need 2 weights"), ("2,1", "outside")])
def test_cli_verify_bad_weight_override_exits_2(tmp_path, capsys, weights, match):
    code, _, err = run(capsys, "verify", str(_pair_z7_file(tmp_path)), "--weights", weights)
    assert code == 2 and _one_line_error(err) and match in err


def test_cli_verify_order_one_exits_2(tmp_path, capsys):
    path = tmp_path / "z1.json"
    write_family(path, DisjointFamily.of(CyclicGroup(1), (0,)))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and _one_line_error(err) and "order" in err


@pytest.mark.parametrize("command", ["verify", "construct", "search"])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, command):
    target = str(tmp_path / "missing" / "out")
    argv = {
        "verify": ["verify", str(_pair_z7_file(tmp_path)), "--profile-csv", target],
        "construct": ["construct", "m2_sedf", "2", "--out", target],
        "search": ["search", "--group", '{"kind": "cyclic", "n": 5}', "--sizes", "2,1",
                   "--out", target],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2 and _one_line_error(err) and "No such file or directory" in err


def test_cli_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a profile too large for the machine: numpy raises a MemoryError subclass
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr(family_module, "difference_count_blocks", refuse)
    code, _, err = run(capsys, "verify", str(_pair_z7_file(tmp_path)))
    assert code == 2 and _one_line_error(err) and "out of memory" in err


def test_cli_profile_csv_over_the_cell_budget_exits_2(tmp_path, capsys, monkeypatch):
    # pair_z7 has 2 sets x 6 deltas = 12 cells
    csv_path = tmp_path / "profile.csv"
    monkeypatch.setattr(family_module, "DENSE_CELL_LIMIT", 11)
    code, out, err = run(capsys, "verify", str(_pair_z7_file(tmp_path)),
                         "--profile-csv", str(csv_path))
    assert code == 2 and out == "" and _one_line_error(err)
    assert "12 cells exceeds DENSE_CELL_LIMIT 11" in err and not csv_path.exists()
    # the report itself needs no dense matrix
    assert run(capsys, "verify", str(_pair_z7_file(tmp_path)))[0] == 0
    monkeypatch.setattr(family_module, "DENSE_CELL_LIMIT", 12)
    code, _, _ = run(capsys, "verify", str(_pair_z7_file(tmp_path)), "--profile-csv", str(csv_path))
    assert code == 0 and csv_path.read_text().startswith("set,1,2,3,4,5,6\n")


def test_cli_profile_csv_counts_the_pairs_twice(tmp_path, capsys, monkeypatch):
    # one streamed profile for the report and one dense matrix for the CSV
    profiles, passes = [], []

    def counting_profiles(families, real=family_module.difference_profiles):
        profiles.extend(family.sets for family in families)
        return real(families)

    def counting_blocks(*args, real=groups.difference_count_blocks, **kwargs):
        passes.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(family_module, "difference_profiles", counting_profiles)
    monkeypatch.setattr(groups, "difference_count_blocks", counting_blocks)
    monkeypatch.setattr(family_module, "difference_count_blocks", counting_blocks)
    csv_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "verify", str(_pair_z7_file(tmp_path)), "--profile-csv", str(csv_path))
    assert code == 0
    assert len(profiles) == 1 and len(passes) == 2
    rows = [row[1:] for row in reference_counts(pair_z7())]
    assert csv_path.read_text() == "set,1,2,3,4,5,6\n" + "".join(
        f"{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(rows, start=1))


def test_profiles_go_through_the_traced_bindings(tmp_path, capsys, monkeypatch):
    # perfbench times the profile layer by wrapping difference_profile in the
    # modules that call it; a call that bypassed them would read as no work
    calls = []
    for name in ("rwedf.classify", "rwedf.simulate"):
        module = importlib.import_module(name)

        def counting(family, real=module.difference_profile, name=name):
            calls.append(name)
            return real(family)

        monkeypatch.setattr(module, "difference_profile", counting)
    path = str(_pair_z7_file(tmp_path))
    assert run(capsys, "verify", path)[0] == 0
    assert calls == ["rwedf.classify"]
    assert run(capsys, "report", path, path)[0] == 0
    assert calls == ["rwedf.classify"] * 3
    play_best_response(pair_z7(), 10, 0)
    assert calls == ["rwedf.classify"] * 3 + ["rwedf.simulate"]


@pytest.mark.parametrize("delta", ["-1", "7", "99"])
def test_cli_simulate_delta_outside_the_group_exits_2(tmp_path, capsys, delta):
    code, out, err = run(capsys, "simulate", "--family", str(_pair_z7_file(tmp_path)),
                         "--delta", delta, "--trials", "10")
    assert code == 2 and out == "" and _one_line_error(err) and "1..6" in err


def test_cli_unknown_descriptor_key_exits_2(tmp_path, capsys):
    path = tmp_path / "zz.json"
    path.write_text('{"group": {"kind": "cyclic", "n": 7, "zz": 1}, "sets": [[0, 1, 3]]}')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and _one_line_error(err) and "unknown keys" in err
    code, _, err = run(capsys, "search", "--group", '{"kind": "cyclic", "n": 7, "zz": 1}',
                       "--sizes", "1", "--out", str(tmp_path / "hits.jsonl"))
    assert code == 2 and "bad group descriptor" in err
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0 and "error: cyclic descriptor has unknown keys" in out


def test_cli_misspelt_weights_key_exits_2(tmp_path, capsys):
    # "weigths" used to be ignored, so the file verified with no weights at exit 0
    fam, weights = weighted_z8()
    data = family_to_dict(fam)
    data["weigths"] = [frac_str(w) for w in weights]
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and _one_line_error(err) and "'weigths'" in err


HUGE_EXPONENT = "1e999999999"


@pytest.mark.parametrize("where", ["verify --weights", "search --ell", "family file"])
def test_cli_exponent_literal_exits_2(tmp_path, capsys, where):
    # Fraction would build a billion-digit integer for it; refused before any arithmetic
    path = _pair_z7_file(tmp_path)
    argv = {
        "verify --weights": ["verify", str(path), "--weights", f"1/2,{HUGE_EXPONENT}"],
        "search --ell": ["search", "--group", '{"kind": "cyclic", "n": 7}', "--sizes", "2,1",
                         "--require", "wedf", "--ell", HUGE_EXPONENT,
                         "--out", str(tmp_path / "hits.jsonl")],
        "family file": ["verify", str(path)],
    }[where]
    if where == "family file":
        data = json.loads(path.read_text())
        data["weights"] = ["1/2", HUGE_EXPONENT]
        path.write_text(json.dumps(data))
    code, _, err = run(capsys, *argv)
    assert code == 2 and _one_line_error(err) and "exponent" in err


def test_cli_report(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_family(good, mixed_z10())
    broken = tmp_path / "broken.json"
    broken.write_text("nope")
    code, out, _ = run(capsys, "report", str(good), str(broken))
    assert code == 0
    assert "r_optimal" in out and "yes" in out
    assert "error:" in out


def test_cli_report_json_stable(tmp_path, capsys):
    paths = []
    for label, fam, weights in (("a", mixed_z10(), None), ("b", *weighted_z8())):
        p = tmp_path / f"{label}.json"
        write_family(p, fam, weights)
        paths.append(str(p))
    first = run(capsys, "report", *paths, "--json")
    second = run(capsys, "report", *paths, "--json")
    assert first == second
    rows = json.loads(first[1])
    assert [r["ell"] for r in rows] == ["2", "-"]
    assert rows[1]["classes"] == "WEDF(3)"


def test_cli_report_threads_keep_order(tmp_path, capsys):
    paths = []
    for i in range(6):
        p = tmp_path / f"f{i}.json"
        write_family(p, mixed_z10())
        paths.append(str(p))
    serial = run(capsys, "report", *paths, "--json")
    threaded = run(capsys, "report", *paths, "--threads", "4", "--json")
    assert serial == threaded
