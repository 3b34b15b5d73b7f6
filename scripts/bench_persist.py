#!/usr/bin/env python3
"""Persist and validate the repo's benchmark trajectory.

The bench binaries emit per-run ``dart-bench-v1`` documents (one per
binary, via ``--json``)::

    {"schema": "dart-bench-v1", "bench": "bench_throughput",
     "host": {"nproc": ..., "cpu_model": ..., "compiler": ...,
              "build_type": ..., "dart_options": ..., "thp": ...},
     "rows": [{"name": ..., "mode": ..., "shards": ..., "packets": ...,
               "reps": ..., "mpps": ...}, ...]}

The ``host`` block is the one the dartd benchmark (perfbench/) prints; rows
written before it existed carry none. This script folds those documents
into a single ``dart-bench-trajectory-v1`` file committed at the repo root
(``BENCH_pr6.json``), keyed by bench name so re-running one binary replaces
only its own rows and host, and validates the result:

    merge:  bench_persist.py --out BENCH_pr6.json rows1.json [rows2.json ...]
    check:  bench_persist.py --check BENCH_pr6.json [--min-speedup 1.5]

``--check`` asserts the schema, that every row is well-formed with a
positive Mpps, and that both a scalar and a batched single-shard row exist.
The headline pair is the *first* single-shard ``dart_`` row of each mode
(``bench_throughput`` emits its ``_1shard`` rows first).
``--min-speedup`` additionally enforces the batched/scalar ratio of that
pair — used when committing a measured trajectory, not in CI smoke runs,
whose oversubscribed hosts make ratios meaningless. It refuses a headline
pair whose bench carries no host block: a speedup means something only
between rows measured on one named host.

The committed ``BENCH_pr6.json`` and ``BENCH_pr9.json`` record a monitor
loop that no longer exists: their ``dart_batched_1shard`` rows timed a
prefetching batch loop that ``DartMonitor`` has since dropped (DESIGN.md
§11). A fresh ``bench_throughput`` run times one monitor loop behind two
dispatch granularities, so its headline pair is not expected to reach
those files' ratios.
"""

import argparse
import json
import os
import sys

ROW_SCHEMA = "dart-bench-v1"
TRAJECTORY_SCHEMA = "dart-bench-trajectory-v1"
ROW_KEYS = {"name", "mode", "shards", "packets", "reps", "mpps"}
HOST_KEYS = {"nproc", "cpu_model", "compiler", "build_type", "dart_options",
             "thp"}


def fail(message: str) -> None:
    print(f"bench_persist: {message}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: {exc}")


def validate_rows(rows: list, origin: str) -> None:
    if not rows:
        fail(f"{origin}: empty row list")
    for row in rows:
        if not isinstance(row, dict) or not ROW_KEYS.issubset(row):
            fail(f"{origin}: malformed row {row!r}")
        if not isinstance(row["mpps"], (int, float)) or row["mpps"] <= 0:
            fail(f"{origin}: non-positive mpps in row {row['name']!r}")
        if row["packets"] <= 0 or row["reps"] <= 0:
            fail(f"{origin}: empty measurement in row {row['name']!r}")


def validate_host(host, origin: str) -> None:
    if not isinstance(host, dict) or not HOST_KEYS.issubset(host):
        fail(f"{origin}: malformed host block {host!r}")


def merge(out_path: str, inputs: list) -> None:
    # A missing output file starts a fresh trajectory; anything else that
    # cannot be parsed is refused, never silently overwritten — a corrupt
    # trajectory means history was damaged and deserves a human decision.
    trajectory = {"schema": TRAJECTORY_SCHEMA, "benches": {}}
    if os.path.exists(out_path):
        if os.path.getsize(out_path) == 0:
            fail(f"{out_path}: refusing to merge into an empty trajectory "
                 f"file — remove it to start fresh")
        try:
            with open(out_path, encoding="utf-8") as handle:
                existing = json.load(handle)
        except json.JSONDecodeError as exc:
            fail(f"{out_path}: refusing to merge into a corrupt trajectory "
                 f"file ({exc}) — remove it to start fresh")
        except OSError as exc:
            fail(f"{out_path}: {exc}")
        if existing.get("schema") != TRAJECTORY_SCHEMA:
            fail(f"{out_path}: refusing to merge into a file with schema "
                 f"{existing.get('schema')!r}, expected {TRAJECTORY_SCHEMA!r}")
        trajectory = existing

    for path in inputs:
        document = load(path)
        if document.get("schema") != ROW_SCHEMA:
            fail(f"{path}: expected schema {ROW_SCHEMA!r}, "
                 f"got {document.get('schema')!r}")
        bench = document.get("bench")
        if not bench:
            fail(f"{path}: missing bench name")
        rows = document.get("rows", [])
        validate_rows(rows, path)
        entry = {"rows": rows}
        if "host" in document:
            validate_host(document["host"], path)
            entry["host"] = document["host"]
        trajectory["benches"][bench] = entry

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    total = sum(len(b["rows"]) for b in trajectory["benches"].values())
    print(f"bench_persist: {out_path}: "
          f"{len(trajectory['benches'])} bench(es), {total} rows")


def single_shard_mpps(rows: list, mode: str) -> float:
    for row in rows:
        if row["mode"] == mode and row["shards"] == 1 \
                and row["name"].startswith("dart_"):
            return row["mpps"]
    fail(f"no single-shard {mode!r} row in bench_throughput")


def check(path: str, min_speedup: float) -> None:
    # The baseline's absence is the most dangerous failure mode: a CI job
    # that forgets to commit or restore it must go red, not quietly green.
    if not os.path.exists(path):
        fail(f"{path}: baseline trajectory missing — merge rows with "
             f"--out first, or restore the committed file")
    if os.path.getsize(path) == 0:
        fail(f"{path}: baseline trajectory is empty — a truncated or "
             f"never-written baseline must not pass")
    trajectory = load(path)
    if trajectory.get("schema") != TRAJECTORY_SCHEMA:
        fail(f"{path}: expected schema {TRAJECTORY_SCHEMA!r}, "
             f"got {trajectory.get('schema')!r}")
    benches = trajectory.get("benches", {})
    if not benches:
        fail(f"{path}: baseline has no benches")
    if "bench_throughput" not in benches:
        fail(f"{path}: missing bench_throughput rows")
    for bench, body in benches.items():
        validate_rows(body.get("rows", []), f"{path}:{bench}")
        if "host" in body:
            validate_host(body["host"], f"{path}:{bench}")

    rows = benches["bench_throughput"]["rows"]
    scalar = single_shard_mpps(rows, "scalar")
    batched = single_shard_mpps(rows, "batched")
    speedup = batched / scalar
    print(f"bench_persist: {path}: OK "
          f"(single-shard scalar {scalar:.3f} Mpps, "
          f"batched {batched:.3f} Mpps, speedup {speedup:.2f}x)")
    if min_speedup > 0 and "host" not in benches["bench_throughput"]:
        fail(f"{path}: bench_throughput rows carry no host block; a "
             f"speedup check needs rows from one named host — re-run "
             f"bench_throughput --json and merge its rows")
    if min_speedup > 0 and speedup < min_speedup:
        fail(f"{path}: batched/scalar speedup {speedup:.2f}x "
             f"below required {min_speedup:.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="TRAJECTORY",
                        help="merge row files into this trajectory file")
    parser.add_argument("--check", metavar="TRAJECTORY",
                        help="validate an existing trajectory file")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="with --check: require this batched/scalar "
                             "single-shard ratio")
    parser.add_argument("inputs", nargs="*",
                        help="dart-bench-v1 row files (merge mode)")
    options = parser.parse_args()

    if bool(options.out) == bool(options.check):
        parser.error("exactly one of --out or --check is required")
    if options.out:
        if not options.inputs:
            parser.error("merge mode needs at least one input row file")
        merge(options.out, options.inputs)
    else:
        check(options.check, options.min_speedup)


if __name__ == "__main__":
    main()
