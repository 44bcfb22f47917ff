#!/usr/bin/env python3
"""Checks bench documents against bench/gates.json and the committed records.

    tools/check_bench.py [--gates FILE] [--baselines DIR] [--build-dir DIR]
                         [DOCUMENT...]

A DOCUMENT is what one bench binary wrote: a `peppher-bench v1` document
(bench/report.hpp) or google-benchmark JSON (bench_task_overhead), which is
converted into records. Every document is rewritten in place in the
`peppher-bench v1` shape and, unless it has one, stamped with the host
context of perfbench/run.py; its load average is read when this checker
starts, right after the benches ran.

On documents of a full run (`"smoke": false`) the checker then
  * applies every bound of bench/gates.json (`min`, `max`, `equals`); a
    bound that matches no record fails too;
  * compares each record with the committed one in
    <baselines>/BENCH_<bench>.json, and warns where a `drift` entry of the
    gates file is exceeded. A wall-clock record is compared only when both
    documents carry the same host_id.

Independently of the documents, it validates every committed
<baselines>/BENCH_*.json and checks that each number in an EXPERIMENTS.md
table (<baselines>/EXPERIMENTS.md) agrees with the committed record it
quotes. A table opts in with a comment line right above it:

    <!-- records: BENCH | KEY,... | COLUMN, COLUMN, ... -->

The first len(KEY) cells of a row are the values of those labels. Each
COLUMN describes one further cell: `-` (not checked) or METRIC[@LABEL=VALUE]
items joined by `/`, one per number in the cell. A number agrees with a
record that rounds to it at the number's precision; a range `a–b` agrees
with any record inside it (rows that vary between runs).

Exit status: 0 pass; 1 a gate failed, a bound matched nothing, or a table
number disagrees with its record; 2 a malformed document, gates file or
table, naming the file and the record.
"""

import argparse
import glob
import importlib.util
import json
import math
import os
import re
import sys
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "peppher-bench v1"
CLOCKS = ("virtual", "wall", "none")
BOUNDS = ("min", "max", "equals")


class Malformed(Exception):
    """A document, the gates file or an EXPERIMENTS.md table is unusable."""


def label_text(labels):
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def record_name(record):
    labels = record.get("labels") or {}
    return record.get("metric", "?") + (f"{{{label_text(labels)}}}" if labels else "")


def record_key(record):
    return record["metric"], tuple(sorted(record["labels"].items()))


# -- documents ---------------------------------------------------------------

def from_google_benchmark(doc, path):
    """Records of a google-benchmark JSON document (wall clock). A benchmark
    run with --benchmark_repetitions records the median of its repetitions,
    plus real_time_min and real_time_max, their spread; google-benchmark's
    own aggregates are dropped."""
    context = doc.get("context", {})
    executable = os.path.basename(context.get("executable", ""))
    bench = executable[len("bench_"):] if executable.startswith("bench_") else executable
    runs = {}  # run name -> its repetitions, in order
    for i, entry in enumerate(doc["benchmarks"]):
        if not isinstance(entry, dict) or "name" not in entry:
            raise Malformed(f"{path}: benchmark {i}: no name")
        if entry.get("run_type") != "aggregate":
            runs.setdefault(entry.get("run_name", entry["name"]), []).append(entry)
    records = []
    for name, entries in runs.items():
        labels = {"benchmark": name}
        unit = entries[0].get("time_unit", "ns")
        for metric in ("real_time", "cpu_time"):
            records.append({"metric": metric, "labels": labels,
                            "value": median(e.get(metric) for e in entries),
                            "unit": unit, "clock": "wall"})
        if len(entries) > 1:
            for metric, pick in (("real_time_min", min), ("real_time_max", max)):
                records.append({"metric": metric, "labels": labels,
                                "value": pick(e.get("real_time") for e in entries),
                                "unit": unit, "clock": "wall"})
        if "items_per_second" in entries[0]:
            records.append({"metric": "items_per_second", "labels": labels,
                            "value": median(e.get("items_per_second") for e in entries),
                            "unit": "items/s", "clock": "wall"})
    return {"schema": SCHEMA, "bench": bench,
            "smoke": context.get("smoke") == "true", "records": records}


def validate(doc, path, committed=False):
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise Malformed(f"{path}: not a '{SCHEMA}' document")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        raise Malformed(f"{path}: no bench name")
    if os.path.basename(path) != f"BENCH_{doc['bench']}.json":
        raise Malformed(f"{path}: holds bench '{doc['bench']}', "
                        f"expected the file BENCH_{doc['bench']}.json")
    if not isinstance(doc.get("smoke"), bool):
        raise Malformed(f"{path}: 'smoke' must be true or false")
    if committed and not isinstance((doc.get("host") or {}).get("host_id"), str):
        raise Malformed(f"{path}: no host context")
    records = doc.get("records")
    if not isinstance(records, list):
        raise Malformed(f"{path}: 'records' must be a list")
    seen = set()
    for i, record in enumerate(records):
        where = f"{path}: record {i}"
        if not isinstance(record, dict):
            raise Malformed(f"{where}: not an object")
        where += f" ({record_name(record)})"
        for field in ("metric", "labels", "value", "unit", "clock"):
            if field not in record:
                raise Malformed(f"{where}: missing '{field}'")
        if not isinstance(record["metric"], str) or not record["metric"]:
            raise Malformed(f"{where}: 'metric' must be a non-empty string")
        labels = record["labels"]
        if not isinstance(labels, dict) or not all(
                isinstance(v, str) for v in labels.values()):
            raise Malformed(f"{where}: 'labels' must map names to strings")
        value = record["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise Malformed(f"{where}: 'value' must be a finite number")
        if not isinstance(record["unit"], str) or not record["unit"]:
            raise Malformed(f"{where}: 'unit' must be a non-empty string")
        if record["clock"] not in CLOCKS:
            raise Malformed(f"{where}: 'clock' must be one of {', '.join(CLOCKS)}")
        if record_key(record) in seen:
            raise Malformed(f"{where}: duplicate record")
        seen.add(record_key(record))


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}") from e


def load_document(path):
    doc = load_json(path)
    if isinstance(doc, dict) and "benchmarks" in doc and "schema" not in doc:
        doc = from_google_benchmark(doc, path)
    validate(doc, path)
    return doc


def host_context(build_dir, work_dir, load_at_start):
    """perfbench's host context (same host_id rule), with this build's type."""
    sys.dont_write_bytecode = True  # no __pycache__ in the source tree
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    context = perfbench.host_context(ROOT, build_dir, work_dir, load_at_start)
    context["build_type"] = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    # Empty selects the default of the top-level CMakeLists.txt.
                    context["build_type"] = line.split("=", 1)[1].strip() or "RelWithDebInfo"
    except OSError:
        pass
    return context


def stamp(doc, path, context):
    """Rewrites the document with its host context, one record per line."""
    doc.setdefault("host", context)
    head = json.dumps({key: doc[key] for key in ("schema", "bench", "smoke", "host")},
                      indent=1)
    records = ",\n".join("  " + json.dumps(r) for r in doc["records"])
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{head[:-2]},\n "records": [\n{records}\n ]\n}}\n')


# -- gates -------------------------------------------------------------------

def load_gates(path):
    spec = load_json(path)
    if not isinstance(spec, dict) or spec.get("schema") != "peppher-gates v1":
        raise Malformed(f"{path}: not a 'peppher-gates v1' document")
    gates = spec.get("gates")
    if not isinstance(gates, list):
        raise Malformed(f"{path}: no 'gates' list")
    for i, gate in enumerate(gates):
        where = f"{path}: gate {i}"
        if not isinstance(gate, dict) or not isinstance(gate.get("bench"), str) \
                or not isinstance(gate.get("metric"), str):
            raise Malformed(f"{where}: needs 'bench' and 'metric'")
        gate.setdefault("labels", {})
        if not isinstance(gate["labels"], dict):
            raise Malformed(f"{where}: 'labels' must be an object")
        kinds = [k for k in (*BOUNDS, "drift") if k in gate]
        if not kinds or ("drift" in kinds and len(kinds) > 1):
            raise Malformed(f"{where}: needs min, max or equals, or drift alone")
        for kind in kinds:
            if isinstance(gate[kind], bool) or not isinstance(gate[kind], (int, float)):
                raise Malformed(f"{where}: '{kind}' must be a number")
    return gates


def gate_text(gate):
    labels = f"{{{label_text(gate['labels'])}}}" if gate["labels"] else ""
    bounds = " ".join(f"{k} {gate[k]:g}" for k in (*BOUNDS, "drift") if k in gate)
    return f"{gate['bench']} {gate['metric']}{labels} {bounds}"


def matching(records, gate):
    return [r for r in records if r["metric"] == gate["metric"] and all(
        r["labels"].get(k) == v for k, v in gate["labels"].items())]


def breaks(value, gate):
    return (("min" in gate and value < gate["min"])
            or ("max" in gate and value > gate["max"])
            or ("equals" in gate and value != gate["equals"]))


def apply_gates(doc, gates):
    """Prints one line per bound; returns the number that failed."""
    failed = 0
    for gate in gates:
        if gate["bench"] != doc["bench"] or "drift" in gate:
            continue
        records = matching(doc["records"], gate)
        bad = [r for r in records if breaks(r["value"], gate)]
        if not records:
            print(f"  FAIL gate {gate_text(gate)}: matched no record")
        elif bad:
            for r in bad:
                print(f"  FAIL gate {gate_text(gate)}: {record_name(r)} = {r['value']:g}"
                      + (f" ({gate['why']})" if "why" in gate else ""))
        else:
            values = [r["value"] for r in records]
            print(f"  ok   gate {gate_text(gate)}: {len(records)} record(s), "
                  f"{min(values):g}..{max(values):g}")
        failed += not records or bool(bad)
    return failed


def compare(doc, committed, gates):
    """Prints how the run differs from the committed records, and drift."""
    if committed is None:
        print(f"  no committed BENCH_{doc['bench']}.json to compare with")
        return
    same_host = doc["host"]["host_id"] == committed["host"]["host_id"]
    old = {record_key(r): r["value"] for r in committed["records"]}
    drifts = [g for g in gates if g["bench"] == doc["bench"] and "drift" in g]
    equal = skipped = 0
    for record in doc["records"]:
        key = record_key(record)
        if key not in old:
            print(f"  new: {record_name(record)} = {record['value']:g}")
            continue
        if record["clock"] == "wall" and not same_host:
            skipped += 1
            continue
        if record["value"] == old[key]:
            equal += 1
            continue
        drifted = [g for g in drifts if matching([record], g)
                   and abs(record["value"] - old[key]) > g["drift"]]
        marker = f"  <-- drift above {drifted[0]['drift']:g}" if drifted else ""
        print(f"  differs: {record_name(record)} = {record['value']:g} "
              f"(committed {old[key]:g}){marker}")
    note = (f", {skipped} wall record(s) not compared (committed on host "
            f"{committed['host']['host_id']}, this run on {doc['host']['host_id']})"
            if skipped else "")
    print(f"  {equal} of {len(doc['records'])} record(s) equal the committed ones{note}")


# -- EXPERIMENTS.md tables ---------------------------------------------------

NUMBER = r"[+\-−]?\d+(?:\.\d+)?"
QUANTITY = re.compile(rf"({NUMBER})(?:\s*–\s*({NUMBER}))?")
TABLE_TAG = re.compile(r"^<!--\s*records:(.*)-->\s*$")


def parse_number(text):
    value = float(text.replace("−", "-"))
    decimals = len(text.split(".")[1]) if "." in text else 0
    return value, 0.5 * 10 ** -decimals * (1 + 1e-9)


def cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def parse_column(spec, where):
    spec = spec.strip()
    if spec == "-":
        return None
    items = []
    for item in spec.split("/"):
        metric, *extra = item.strip().split("@")
        labels = {}
        for pair in extra:
            if "=" not in pair:
                raise Malformed(f"{where}: '{item}' needs @LABEL=VALUE")
            key, value = pair.split("=", 1)
            labels[key] = value
        items.append((metric, labels))
    return items


def check_tables(path, committed):
    """Prints each disagreement; returns their count."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    wrong = tables = 0
    for n, line in enumerate(lines):
        tag = TABLE_TAG.match(line.strip())
        if not tag:
            continue
        where = f"{path}:{n + 1}"
        fields = tag.group(1).split("|")
        if len(fields) != 3:
            raise Malformed(f"{where}: expected 'BENCH | KEY,... | COLUMN, ...'")
        bench = fields[0].strip()
        keys = [k.strip() for k in fields[1].split(",") if k.strip()]
        columns = [parse_column(c, where) for c in fields[2].split(",")]
        if bench not in committed:
            raise Malformed(f"{where}: no committed BENCH_{bench}.json")
        records = {record_key(r): r["value"] for r in committed[bench]["records"]}
        rows = lines[n + 3:]
        if n + 2 >= len(lines) or not lines[n + 2].lstrip().startswith("|---"):
            raise Malformed(f"{where}: the comment must sit right above a table")
        tables += 1
        for row_index, row in enumerate(rows):
            if not row.lstrip().startswith("|"):
                break
            row_where = f"{path}:{n + 4 + row_index}"
            row_cells = cells(row)
            if len(row_cells) != len(keys) + len(columns):
                raise Malformed(f"{row_where}: {len(row_cells)} cells, the comment "
                                f"describes {len(keys) + len(columns)}")
            key_labels = {k: c.replace("*", "").replace("`", "").strip()
                          for k, c in zip(keys, row_cells)}
            for column, cell in zip(columns, row_cells[len(keys):]):
                if column is None:
                    continue
                quantities = QUANTITY.findall(cell)
                if len(quantities) != len(column):
                    raise Malformed(f"{row_where}: cell '{cell}' holds "
                                    f"{len(quantities)} number(s), expected {len(column)}")
                for (metric, extra), (low, high) in zip(column, quantities):
                    labels = {**key_labels, **extra}
                    key = (metric, tuple(sorted(labels.items())))
                    name = f"{bench} {metric}{{{label_text(labels)}}}"
                    if key not in records:
                        print(f"{row_where}: {name} is not in the committed record")
                        wrong += 1
                        continue
                    lo, tol = parse_number(low)
                    hi = parse_number(high)[0] if high else lo
                    value = records[key]
                    if not lo - tol <= value <= hi + tol:
                        quoted = f"{low}–{high}" if high else low
                        print(f"{row_where}: {name} is {value:g}, the table says {quoted}")
                        wrong += 1
    print(f"{os.path.basename(path)}: {tables} table(s) checked against the "
          f"committed records, {wrong} disagreement(s)")
    return wrong


# -- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gates", default=os.path.join(ROOT, "bench", "gates.json"))
    parser.add_argument("--baselines", default=ROOT,
                        help="directory of the committed BENCH_*.json and EXPERIMENTS.md")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    parser.add_argument("documents", nargs="*")
    args = parser.parse_args()
    load_at_start = list(os.getloadavg())

    try:
        gates = load_gates(args.gates)
        committed = {}
        for path in sorted(glob.glob(os.path.join(args.baselines, "BENCH_*.json"))):
            doc = load_json(path)
            validate(doc, path, committed=True)
            committed[doc["bench"]] = doc
        docs = [(path, load_document(path)) for path in args.documents]
        experiments = os.path.join(args.baselines, "EXPERIMENTS.md")
        failures = check_tables(experiments, committed) if os.path.exists(experiments) else 0
    except Malformed as e:
        print(f"check_bench: {e}", file=sys.stderr)
        return 2

    context = None
    for path, doc in docs:
        if "host" not in doc and context is None:
            context = host_context(args.build_dir, os.path.dirname(os.path.abspath(path)),
                                   load_at_start)
        stamp(doc, path, context)
        kind = "smoke" if doc["smoke"] else "full"
        print(f"{os.path.basename(path)}: {len(doc['records'])} record(s), {kind} run, "
              f"host {doc['host']['host_id']}")
        if not doc["smoke"]:
            failures += apply_gates(doc, gates)
            compare(doc, committed.get(doc["bench"]), gates)
    if failures:
        print(f"check_bench: {failures} failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
