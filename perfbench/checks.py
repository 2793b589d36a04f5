"""Correctness checks on one sweep CSV.

The schema and the invariants are written down here rather than imported
from ``jdd.sweeps``, so the benchmark checks the output contract and not
whatever the code under test currently writes.
"""

import csv
import hashlib
import io
import math

HEADER = ["scheme", "kind", "n", "es_n0_db", "value", "stderr", "flag"]
KEY_FIELDS = ("scheme", "kind", "n", "es_n0_db", "flag")
# schemes whose converse and achievability rows bracket the same quantity
PAIRED_SCHEMES = ("genie", "hyped", "preamble")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def row_keys(data):
    """The (scheme, kind, n, es_n0_db, flag) key of every data row, in order."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return [[r[f] for f in KEY_FIELDS] for r in rows]


def _number(text, what, problems):
    try:
        v = float(text)
    except ValueError:
        problems.append(f"{what} is not a number: {text!r}")
        return None
    if not math.isfinite(v):
        problems.append(f"{what} is not finite: {text!r}")
        return None
    return v


def check_csv(data, direction, golden_keys=None):
    """Problems found in one sweep CSV (bytes); an empty list means it passed.

    `direction` is "rate" when values are rates in bits per channel use (a
    converse may not sit below its achievability) and "pie" when they are
    inclusive error probabilities (a converse may not sit above it). Both
    kinds of value lie in [0, 1] for a binary-input channel. `golden_keys`,
    when given, is the row-key list the CSV must reproduce exactly.
    """
    problems = []
    try:
        reader = csv.reader(io.StringIO(data.decode()))
        header = next(reader, None)
        records = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    if header != HEADER:
        return [f"header {header} != {HEADER}"]
    if not records:
        problems.append("no data rows")
    pairs = {}
    for i, rec in enumerate(records, start=1):
        if len(rec) != len(HEADER):
            problems.append(f"row {i} has {len(rec)} fields")
            continue
        row = dict(zip(HEADER, rec))
        if not row["n"].isdigit():
            problems.append(f"row {i}: n is not a positive integer: {row['n']!r}")
        _number(row["es_n0_db"], f"row {i} es_n0_db", problems)
        value = _number(row["value"], f"row {i} value", problems)
        if value is not None and not 0.0 <= value <= 1.0:
            problems.append(f"row {i}: value {value} outside [0, 1]")
        if row["stderr"]:
            se = _number(row["stderr"], f"row {i} stderr", problems)
            if se is not None and se < 0:
                problems.append(f"row {i}: negative stderr {se}")
        if row["scheme"] in PAIRED_SCHEMES and value is not None:
            point = (row["scheme"], row["n"], row["es_n0_db"])
            kinds = pairs.setdefault(point, {})
            if row["kind"] in kinds:
                problems.append(f"row {i}: duplicate {row['kind']} row for {point}")
            kinds[row["kind"]] = value
    for point, kinds in pairs.items():
        if "converse" in kinds and "achievability" in kinds:
            con, ach = kinds["converse"], kinds["achievability"]
            if (direction == "rate" and con < ach) or (direction == "pie" and con > ach):
                problems.append(f"{point}: converse {con} on the wrong side of achievability {ach}")
    if golden_keys is not None and not problems:
        keys = row_keys(data)
        if keys != golden_keys:
            problems.append(f"row keys differ from the golden: {keys} != {golden_keys}")
    return problems
