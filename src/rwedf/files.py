"""Family files, search result lines, and profile export.

Family file layout, in fixed key order:

    {"group": <descriptor>, "sets": [[0, 1, 3], ...],
     "weights": ["1/2", ...],        optional
     "metadata": {...}}              optional, free-form

Files are written canonically (two-space indent, trailing newline, insertion
key order), so a file written by this module reads back and rewrites byte for
byte.  Search results go to JSONL: one compact family object per line.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .family import DisjointFamily, check_weights
from .groups import FiniteGroup, group_from_descriptor


def frac_str(x: Fraction) -> str:
    """Render a rational as "p" or "p/q", the form parse_frac reads back."""
    return str(Fraction(x))


def parse_frac(s) -> Fraction:
    """An integer, "p/q" or decimal as a rational.  Exponents are refused: "1e999999999"
    would have Fraction build a billion-digit integer."""
    text = str(s)
    if "e" in text or "E" in text:
        raise ValueError(f"not a rational (no exponent form): {s!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def family_to_dict(
    family: DisjointFamily,
    weights: Optional[Sequence[Fraction]] = None,
    metadata: Optional[dict] = None,
) -> dict:
    out = {
        "group": family.group.describe(),
        "sets": [list(s) for s in family.sets],
    }
    if weights is not None:
        out["weights"] = [frac_str(w) for w in check_weights(family.m, weights)]
    if metadata is not None:
        out["metadata"] = _check_metadata(metadata)
    return out


def _check_metadata(metadata):
    """The metadata itself; ValueError unless it is a JSON object."""
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be an object")
    return metadata


FAMILY_KEYS = ("group", "sets", "weights", "metadata")


def parse_json(text: str):
    """json.loads, with a document nested past the decoder's stack refused as ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deep to decode") from exc


def family_from_dict(data) -> Tuple[DisjointFamily, Optional[Tuple[Fraction, ...]], Optional[dict]]:
    if not isinstance(data, dict):
        raise ValueError("family file must hold a JSON object")
    unknown = [key for key in data if key not in FAMILY_KEYS]
    if unknown:
        raise ValueError(f"family file has unknown keys {unknown!r}; "
                         f"it holds only {', '.join(FAMILY_KEYS)}")
    for key in ("group", "sets"):
        if key not in data:
            raise ValueError(f"family file is missing {key!r}")
    group = group_from_descriptor(data["group"])
    sets = data["sets"]
    if not isinstance(sets, list) or not sets or not all(
        isinstance(s, list) and all(type(x) is int for x in s) for s in sets  # no bools
    ):
        raise ValueError("sets must be a non-empty list of integer element lists")
    family = DisjointFamily.of(group, *sets)
    weights = None
    if "weights" in data:
        if not isinstance(data["weights"], list):
            raise ValueError("weights must be a list of rationals")
        weights = check_weights(family.m, [parse_frac(s) for s in data["weights"]])
    metadata = data.get("metadata")
    return family, weights, None if metadata is None else _check_metadata(metadata)


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def write_family(
    path,
    family: DisjointFamily,
    weights: Optional[Sequence[Fraction]] = None,
    metadata: Optional[dict] = None,
) -> None:
    text = canonical_json(family_to_dict(family, weights, metadata))  # refused before open
    with open(path, "w") as fh:
        fh.write(text)


def read_family(path) -> Tuple[DisjointFamily, Optional[Tuple[Fraction, ...]], Optional[dict]]:
    with open(path) as fh:
        return family_from_dict(parse_json(fh.read()))


def _line_format(group: FiniteGroup, sizes: Tuple[int, ...]) -> str:
    """The ``str.format`` template of the JSONL line of a family of this group and
    these set sizes: its members, in set order, fill the fields, and the line is
    ``json.dumps(family_to_dict(family), separators=(",", ":"))``."""
    head = json.dumps({"group": group.describe()}, separators=(",", ":"))[:-1]
    sets = ",".join("[" + ",".join(["{}"] * k) + "]" for k in sizes)
    return head.replace("{", "{{").replace("}", "}}") + ',"sets":[' + sets + "]}}"


def family_to_jsonl_line(family: DisjointFamily) -> str:
    return _line_format(family.group, family.sizes).format(*chain.from_iterable(family.sets))


def write_families_jsonl(path, families: Sequence[DisjointFamily]) -> None:
    """One line a family; each run of families with one group object and one set
    sizes tuple is written from one template."""
    with open(path, "w") as fh:
        group, sizes, line = None, None, ""
        for fam in families:
            if fam.group is not group or fam.sizes != sizes:
                group, sizes = fam.group, fam.sizes
                line = _line_format(group, sizes) + "\n"
            fh.write(line.format(*chain.from_iterable(fam.sets)))


def read_families_jsonl(path) -> List[DisjointFamily]:
    """The family on each non-blank line; a bad line raises ValueError naming the
    file and the line's 1-based number."""
    families = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    families.append(family_from_dict(parse_json(line))[0])
                except ValueError as exc:
                    raise ValueError(f"{path}, line {number}: {exc}") from exc
    return families


def profile_to_csv(matrix: np.ndarray) -> str:
    """A count matrix (``count_matrix``) as CSV: rows are family sets (1-based), columns
    are delta = 1..n-1."""
    lines = ["set," + ",".join(str(d) for d in range(1, matrix.shape[1] + 1))]
    for i, row in enumerate(matrix.tolist(), start=1):
        lines.append(str(i) + "," + ",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"
