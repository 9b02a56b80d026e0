#!/usr/bin/env python3
"""Compare two output folders file by file: python scripts/compare_outputs.py OLD NEW.

Prints a Markdown table with one row per file of either folder: "identical"
when the bytes match, or else the largest change, scaled the way the error
budget states it:

- sweep curves (sweep_*.csv): g2 relative to the old value;
- the correlation map (g2map.csv): of the old map's maximum; two maps on
  different nodes give both node counts and the largest change on the
  (t1, t2) pairs both hold, matched on the printed times;
- spectra (spectrum_*.csv): of the old peak;
- any other CSV or JSON data: the largest absolute change of a number.

A column other than the scaled one that changes is named with its largest
absolute change.  A column that only one file has is named as only in OLD
or only in NEW, and the columns both hold are still compared.  Metadata
(*_metadata.json) is compared key by key, with the output paths left out:
the `out` key and any path inside the folder.
Exits 0 whatever it finds, 2 without the two folders.
"""

import json
import math
import os
import sys

import numpy as np

# file-name prefix -> (column, scaling) of the error budget
SCALED = {
    "sweep_": ("g2", "relative"),
    "g2map": ("value", "of max"),
    "spectrum_": ("normalized_intensity", "of peak"),
}


def _files(root):
    return {os.path.relpath(os.path.join(where, name), root)
            for where, _, names in os.walk(root) for name in names}


def _read_csv(path):
    """Columns of a CSV after its '#' comment lines and header: float arrays,
    or text arrays where a value is not a number."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    columns = {}
    for i, name in enumerate(header):
        values = [row[i] for row in rows]
        try:
            columns[name] = np.array(values, dtype=float)
        except ValueError:
            columns[name] = np.array(values)
    return columns


def _compare_map(old, new):
    """Two correlation maps on different nodes: their node counts, and the
    largest change of value on the (t1, t2) pairs both hold."""
    nodes = " -> ".join(str(len(np.unique(m["t1"]))) for m in (old, new))
    rows = {pair: i for i, pair in enumerate(zip(old["t1"].tolist(), old["t2"].tolist()))}
    both = [(rows[pair], j) for j, pair in enumerate(zip(new["t1"].tolist(), new["t2"].tolist()))
            if pair in rows]
    if not both:
        return f"nodes {nodes}: no (t1, t2) pair in common"
    i, j = np.array(both).T
    change = np.max(np.abs(new["value"][j] - old["value"][i])) / np.max(np.abs(old["value"]))
    return f"nodes {nodes}: {change:.3g} of max in value on the {len(both)} common (t1, t2) pairs"


def _compare_csv(name, old_path, new_path):
    old, new = _read_csv(old_path), _read_csv(new_path)
    only = [f"{column} only in {side}" for side, a, b in (("OLD", old, new), ("NEW", new, old))
            for column in a if column not in b]
    if name.startswith("g2map") and not only and \
            not all(np.array_equal(old[t], new[t]) for t in ("t1", "t2")):
        return _compare_map(old, new)
    n_old, n_new = (len(next(iter(columns.values()))) for columns in (old, new))
    if n_old != n_new:
        return "; ".join([*only, f"row count differs: {n_old} -> {n_new}"])
    key, scaling = next((spec for prefix, spec in SCALED.items()
                         if name.startswith(prefix)), (None, "absolute"))
    notes = []
    for column, a in old.items():
        if column not in new:
            continue
        b = new[column]
        if a.dtype.kind != "f" or b.dtype.kind != "f":
            if not np.array_equal(a, b):
                notes.append(f"{column}: text differs")
            continue
        change = np.abs(b - a)
        if not np.any(change):
            continue
        if column == key and scaling == "relative":
            with np.errstate(divide="ignore", invalid="ignore"):
                notes.insert(0, f"{np.max(change / np.abs(a)):.3g} relative in {column}")
        elif column == key:
            notes.insert(0, f"{np.max(change) / np.max(np.abs(a)):.3g} {scaling} in {column}")
        else:
            notes.append(f"{np.max(change):.3g} absolute in {column}")
    if only and not notes:
        notes.append("shared columns equal")
    return "; ".join(only + notes) or "numbers identical, text differs"


def _leaves(value, prefix=""):
    """Path -> leaf of a JSON value."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in _leaves(item, f"{prefix}{key}.").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in _leaves(item, f"{prefix}{i}.").items()}
    return {prefix.rstrip("."): value}


def _without_paths(leaves, root):
    """The leaves less the output paths: `out`, and any string naming a path
    inside `root`, read as relative to it."""
    root = os.path.abspath(root)
    kept = {}
    for key, value in leaves.items():
        if key.rsplit(".", 1)[-1] == "out":
            continue
        if isinstance(value, str) and os.path.abspath(value).startswith(root + os.sep):
            value = os.path.relpath(os.path.abspath(value), root)
        kept[key] = value
    return kept


def _compare_json(old_path, new_path, metadata, old_root, new_root):
    with open(old_path) as fh:
        old = _leaves(json.load(fh))
    with open(new_path) as fh:
        new = _leaves(json.load(fh))
    if metadata:
        old, new = _without_paths(old, old_root), _without_paths(new, new_root)
    notes = [f"{key} only in {side}" for side, a, b in (("OLD", old, new), ("NEW", new, old))
             for key in sorted(set(a) - set(b))]
    largest = 0.0
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if a == b:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers and not metadata and math.isfinite(a) and math.isfinite(b):
            largest = max(largest, abs(b - a))
        else:
            notes.append(f"{key}: {a!r} -> {b!r}")
    if largest:
        notes.insert(0, f"{largest:.3g} absolute")
    if metadata and not notes:
        return "identical apart from output paths"
    return "; ".join(notes) or "identical apart from formatting"


def compare(old_root, new_root, name):
    """One row's verdict for the file `name` of the two folders."""
    old_path, new_path = os.path.join(old_root, name), os.path.join(new_root, name)
    if not os.path.exists(new_path):
        return "only in OLD"
    if not os.path.exists(old_path):
        return "only in NEW"
    with open(old_path, "rb") as a, open(new_path, "rb") as b:
        if a.read() == b.read():
            return "identical"
    base = os.path.basename(name)
    try:
        if base.endswith(".csv"):
            return _compare_csv(base, old_path, new_path)
        if base.endswith(".json"):
            return _compare_json(old_path, new_path, base.endswith("_metadata.json"),
                                 old_root, new_root)
    except (ValueError, IndexError) as err:  # JSONDecodeError is a ValueError
        return f"differs (unreadable: {err})"
    return "differs"


def main(argv):
    if len(argv) != 2:
        print("usage: compare_outputs.py OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = argv
    print("| file | change |")
    print("|---|---|")
    for name in sorted(_files(old_root) | _files(new_root)):
        print(f"| {name} | {compare(old_root, new_root, name)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
