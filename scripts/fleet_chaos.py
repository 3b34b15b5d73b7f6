#!/usr/bin/env python3
"""Process-level chaos harness for the fleet aggregation subsystem.

Runs a *real* fleet: one ``dart-fleet vantage`` subprocess per vantage over
deterministic slices of the shared campus workload, some of them carrying
exporter-side faults (crash, torn frame, duplicate delivery, reordering),
then collects the spool twice and asserts the hard guarantees:

  1. byte-stability  — two independent collections over the same spool
                       produce identical merged reports;
  2. identity        — ``dart-fleet check`` accepts the report: per vantage
                       and in aggregate,
                       processed + shed + abandoned + lost_to_crash
                         + lost_to_vantage == routed;
  3. exact loss      — the faulted fleet's processed + lost_to_vantage
                       equals the clean baseline's processed, per vantage:
                       nothing vanishes without being accounted;
  4. quarantine      — the torn and duplicated frames show up in the
                       quarantine counters (and nothing else does), and
                       the collector exits 0: corrupt frames never crash it;
  5. crash fidelity  — the killed vantage's process really died with the
                       dedicated exit code (3), not a clean shutdown.

Runs against the tree's ordinary dart-fleet::

    cmake -B build -S .
    cmake --build build --target dart-fleet
    scripts/fleet_chaos.py --binary build/src/tools/dart-fleet

Exit status: 0 if every assertion holds, 1 otherwise.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

EXIT_KILLED = 3

FAILURES = []


def fail(message: str) -> None:
    FAILURES.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def note(message: str) -> None:
    print(f"chaos: {message}")


def collect(binary, spool, fleet, out_path):
    cmd = [
        binary, "collect",
        "--spool", spool,
        "--vantages", str(fleet),
        "--fence-after", "3",
        "--max-attempts", "16",
        "--poll-base-ms", "5",
        "--poll-max-ms", "20",
        "--quiet", "--check",
        "--out", out_path,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


def parse_report(text: str) -> dict:
    """name or name{vantage="v"} -> int value (fleet counters are counts)."""
    values = {}
    for line in text.splitlines():
        match = re.match(r'^([a-z_]+)(\{[^}]*\})? (\d+)$', line)
        if match:
            values[match.group(1) + (match.group(2) or "")] = int(
                match.group(3))
    return values


def vantage_metric(values, name, vantage):
    return values.get(f'{name}{{vantage="campus-{vantage}"}}', 0)


def run_fleet(binary, spool, args, faults_by_vantage):
    """Launch every vantage process concurrently; return exit codes."""
    procs = {}
    for vantage in range(args.vantages):
        extra = list(faults_by_vantage.get(vantage, ()))
        if vantage in faults_by_vantage:
            note(f"vantage {vantage}: faults {' '.join(extra)}")
        cmd = [
            binary, "vantage",
            "--id", str(vantage),
            "--vantages", str(args.vantages),
            "--spool", spool,
            "--seed", str(args.seed),
            "--connections", str(args.connections),
            "--epochs", str(args.epochs),
            *extra,
        ]
        procs[vantage] = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    codes = {}
    for vantage, proc in procs.items():
        _, stderr = proc.communicate(timeout=args.timeout)
        codes[vantage] = proc.returncode
        if proc.returncode not in (0, EXIT_KILLED):
            fail(f"vantage {vantage} exited {proc.returncode}: "
                 f"{stderr.strip()}")
    return codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True,
                        help="path to the dart-fleet binary")
    parser.add_argument("--vantages", type=int, default=4)
    parser.add_argument("--connections", type=int, default=600)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timeout", type=int, default=120,
                        help="per-process timeout, seconds")
    parser.add_argument("--workdir", default=None,
                        help="keep artifacts here instead of a temp dir")
    args = parser.parse_args()

    binary = os.path.abspath(args.binary)
    if not os.access(binary, os.X_OK):
        print(f"chaos: {binary} is not executable", file=sys.stderr)
        return 1

    workdir = args.workdir or tempfile.mkdtemp(prefix="fleet-chaos-")
    os.makedirs(workdir, exist_ok=True)
    note(f"workdir {workdir}")

    # --- Clean baseline fleet: the loss-free reference per vantage. ------
    base_spool = os.path.join(workdir, "spool-baseline")
    shutil.rmtree(base_spool, ignore_errors=True)
    run_fleet(binary, base_spool, args, faults_by_vantage={})
    base_report = os.path.join(workdir, "baseline.report")
    result = collect(binary, base_spool, args.vantages, base_report)
    if result.returncode != 0:
        fail(f"baseline collect failed: {result.stderr.strip()}")
        return 1
    baseline = parse_report(open(base_report, encoding="utf-8").read())
    if baseline.get("fleet_vantages_complete") != args.vantages:
        fail("baseline fleet did not complete cleanly")

    # --- Chaos fleet: same workload, faults on three vantages. -----------
    # vantage 1 crashes after 3 frames (manifest + 2 epochs);
    # vantage 2 delivers one torn and one duplicated frame;
    # vantage 3 reorders a mid-stream frame (must heal losslessly).
    faults = {
        1: ("--fault-kill-after", "3"),
        2: ("--fault-truncate", "2:40", "--fault-duplicate", "1"),
        3: ("--fault-reorder", "2"),
    }
    if args.vantages < 4:
        print("chaos: need at least 4 vantages", file=sys.stderr)
        return 1
    chaos_spool = os.path.join(workdir, "spool-chaos")
    shutil.rmtree(chaos_spool, ignore_errors=True)
    codes = run_fleet(binary, chaos_spool, args, faults_by_vantage=faults)

    # 5. crash fidelity: the killed vantage died with the dedicated code.
    if codes.get(1) != EXIT_KILLED:
        fail(f"killed vantage exited {codes.get(1)}, expected {EXIT_KILLED}")
    for vantage, code in codes.items():
        if vantage != 1 and code != 0:
            fail(f"vantage {vantage} exited {code}, expected 0")

    # 4. the collector survives the damage (exit 0 incl. --check) ...
    report_a = os.path.join(workdir, "chaos-a.report")
    result = collect(binary, chaos_spool, args.vantages, report_a)
    if result.returncode != 0:
        fail(f"chaos collect failed: {result.stderr.strip()}")
        return 1

    # 1. byte-stability: a second, independent collection is identical.
    report_b = os.path.join(workdir, "chaos-b.report")
    result = collect(binary, chaos_spool, args.vantages, report_b)
    if result.returncode != 0:
        fail(f"second chaos collect failed: {result.stderr.strip()}")
        return 1
    bytes_a = open(report_a, "rb").read()
    bytes_b = open(report_b, "rb").read()
    if bytes_a != bytes_b:
        fail("merged reports differ between two collections of one spool")
    else:
        note("merged report is byte-stable across collections")

    # 2. identity: the standalone verifier agrees.
    result = subprocess.run([binary, "check", report_a],
                            capture_output=True, text=True, check=False)
    if result.returncode != 0:
        fail(f"dart-fleet check rejected the report: {result.stderr.strip()}")
    else:
        note("extended accounting identity holds")

    chaos = parse_report(bytes_a.decode())

    # 3. exact loss: faulted processed + lost_to_vantage == baseline
    # processed, per vantage — the injected losses and nothing else.
    for vantage in range(args.vantages):
        base_processed = vantage_metric(baseline, "fleet_processed_total",
                                        vantage)
        processed = vantage_metric(chaos, "fleet_processed_total", vantage)
        lost = vantage_metric(chaos, "fleet_lost_to_vantage_total", vantage)
        if processed + lost != base_processed:
            fail(f"vantage {vantage}: processed {processed} + lost {lost} "
                 f"!= baseline {base_processed}")
    note("per-vantage accounting matches the baseline minus injected loss")
    if vantage_metric(chaos, "fleet_lost_to_vantage_total", 1) == 0:
        fail("killed vantage shows no loss window")

    # 4. quarantine accounting: exactly the injected damage, observable.
    expected_quarantine = {
        "truncated": 1,           # vantage 2's torn frame
        "duplicate-sequence": 1,  # vantage 2's duplicated frame
    }
    for reason, count in expected_quarantine.items():
        got = chaos.get(f'fleet_frames_quarantined_total{{reason="{reason}"}}',
                        0)
        if got != count:
            fail(f"quarantine[{reason}] == {got}, expected {count}")
    total_quarantined = chaos.get("fleet_frames_quarantined_total", 0)
    if total_quarantined != sum(expected_quarantine.values()):
        fail(f"total quarantined {total_quarantined} != "
             f"{sum(expected_quarantine.values())}")
    else:
        note("quarantine counters match the injected damage exactly")

    # The reordered vantage must have healed without loss.
    if vantage_metric(chaos, "fleet_vantage_state", 3) != 2:  # complete
        fail("reordered vantage did not complete")
    if vantage_metric(chaos, "fleet_frames_missing_total", 3) != 0:
        fail("reordered vantage lost frames despite gap grace")

    if FAILURES:
        print(f"chaos: {len(FAILURES)} assertion(s) failed", file=sys.stderr)
        return 1
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    print("chaos: all fleet chaos assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
