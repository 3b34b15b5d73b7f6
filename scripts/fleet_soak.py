#!/usr/bin/env python3
"""Long-haul soak harness for the fleet aggregation subsystem.

Where ``fleet_chaos.py`` is one adversarial round, this harness runs a
*rotation* of fault plans over a real multi-process fleet (20+ vantages by
default) and asserts the hard guarantees after every round:

  identity        — ``dart-fleet check`` accepts every merged report:
                    processed + shed + abandoned + lost_to_crash
                      + lost_to_vantage == routed, per vantage and total;
  byte-stability  — two independent collections of one spool are
                    byte-identical, every round;
  skew healing    — a round whose vantages claim epochs skewed within the
                    grace window produces a report *byte-identical to the
                    clean baseline*: healed skew never perturbs the output;
  exact loss      — every injected fault (kill, excessive skew, spool
                    damage, restart) shows up in the loss and quarantine
                    counters with exactly the injected magnitude, and
                    processed + lost always equals the clean baseline's
                    processed, per vantage.

The rotation (``--rounds`` cycles through it):

  clean           no faults; establishes the per-vantage baseline
  skew_heal       constant offsets and an epoch lag, all within grace
  skew_quarantine a hopeless offset and a drifting clock, beyond grace
  kills           two vantages crash mid-stream (exit code 3)
  restart         a killed vantage restarts with --incarnation 1 and
                  replays; the collector dedupes and completes losslessly
  spool_damage    the harness flips a sealed byte in published frames
  stall_reorder   stalled and reordered delivery, healed losslessly
  mixed           a kill + healed skew + duplicate + damage, together

Runs against the tree's ordinary dart-fleet::

    cmake -B build -S .
    cmake --build build --target dart-fleet
    scripts/fleet_soak.py --binary build/src/tools/dart-fleet

``--bench-out`` writes a ``dart-bench-v1`` row file (one row per round)
for ``bench_persist.py`` to fold into the committed trajectory.

Exit status: 0 if every assertion in every round holds, 1 otherwise.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

EXIT_KILLED = 3

ROTATION = [
    "clean", "skew_heal", "skew_quarantine", "kills",
    "restart", "spool_damage", "stall_reorder", "mixed",
]

FAILURES = []


def fail(message: str) -> None:
    FAILURES.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def note(message: str) -> None:
    print(f"soak: {message}")
    sys.stdout.flush()


def parse_report(text: str) -> dict:
    """name or name{label="v"} -> int value (fleet counters are counts)."""
    values = {}
    for line in text.splitlines():
        match = re.match(r'^([a-z_]+)(\{[^}]*\})? (\d+)$', line)
        if match:
            values[match.group(1) + (match.group(2) or "")] = int(
                match.group(3))
    return values


def vantage_metric(values, name, vantage):
    return values.get(f'{name}{{vantage="campus-{vantage}"}}', 0)


class Soak:
    def __init__(self, args):
        self.args = args
        self.binary = os.path.abspath(args.binary)
        self.workdir = args.workdir or tempfile.mkdtemp(prefix="fleet-soak-")
        os.makedirs(self.workdir, exist_ok=True)
        self.baseline = None        # parsed clean report
        self.baseline_bytes = None  # raw clean report bytes
        self.bench_rows = []

    def vantage_cmd(self, spool, vantage, extra=(), incarnation=0):
        cmd = [
            self.binary, "vantage",
            "--id", str(vantage),
            "--vantages", str(self.args.vantages),
            "--spool", spool,
            "--seed", str(self.args.seed),
            "--connections", str(self.args.connections),
            "--duration-s", str(self.args.duration_s),
            "--epochs", str(self.args.epochs),
        ]
        if incarnation:
            cmd += ["--incarnation", str(incarnation)]
        return cmd + list(extra)

    def run_fleet(self, spool, faults_by_vantage):
        procs = {}
        for vantage in range(self.args.vantages):
            extra = faults_by_vantage.get(vantage, ())
            if extra:
                note(f"  vantage {vantage}: faults {' '.join(extra)}")
            procs[vantage] = subprocess.Popen(
                self.vantage_cmd(spool, vantage, extra),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        codes = {}
        for vantage, proc in procs.items():
            _, stderr = proc.communicate(timeout=self.args.timeout)
            codes[vantage] = proc.returncode
            if proc.returncode not in (0, EXIT_KILLED):
                fail(f"vantage {vantage} exited {proc.returncode}: "
                     f"{stderr.strip()}")
        return codes

    def collect(self, spool, out_path, skew_out=None):
        cmd = [
            self.binary, "collect",
            "--spool", spool,
            "--vantages", str(self.args.vantages),
            "--fence-after", "3",
            "--max-attempts", "16",
            "--poll-base-ms", "5",
            "--poll-max-ms", "20",
            "--quiet", "--check",
            "--out", out_path,
        ]
        if skew_out:
            cmd += ["--skew-out", skew_out]
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=False)

    def collect_stable(self, round_name, spool, skew_out=None):
        """Collect twice; assert exit 0, byte-stability, and the identity.

        Returns (parsed report, raw bytes) or (None, None) on failure.
        """
        path_a = os.path.join(self.workdir, f"{round_name}-a.report")
        path_b = os.path.join(self.workdir, f"{round_name}-b.report")
        result = self.collect(spool, path_a, skew_out=skew_out)
        if result.returncode != 0:
            fail(f"{round_name}: collect failed: {result.stderr.strip()}")
            return None, None
        result = self.collect(spool, path_b)
        if result.returncode != 0:
            fail(f"{round_name}: second collect failed: "
                 f"{result.stderr.strip()}")
            return None, None
        bytes_a = open(path_a, "rb").read()
        bytes_b = open(path_b, "rb").read()
        if bytes_a != bytes_b:
            fail(f"{round_name}: merged report not byte-stable across "
                 f"collections")
        result = subprocess.run([self.binary, "check", path_a],
                                capture_output=True, text=True, check=False)
        if result.returncode != 0:
            fail(f"{round_name}: identity check rejected the report: "
                 f"{result.stderr.strip()}")
        return parse_report(bytes_a.decode()), bytes_a

    def assert_loss_parity(self, round_name, report, exempt=()):
        """processed + lost_to_vantage == baseline processed, per vantage."""
        for vantage in range(self.args.vantages):
            if vantage in exempt:
                continue
            base = vantage_metric(self.baseline, "fleet_processed_total",
                                  vantage)
            processed = vantage_metric(report, "fleet_processed_total",
                                       vantage)
            lost = vantage_metric(report, "fleet_lost_to_vantage_total",
                                  vantage)
            if processed + lost != base:
                fail(f"{round_name}: vantage {vantage}: processed "
                     f"{processed} + lost {lost} != baseline {base}")

    def quarantined(self, report, reason):
        return report.get(
            f'fleet_frames_quarantined_total{{reason="{reason}"}}', 0)

    def fresh_spool(self, round_name):
        spool = os.path.join(self.workdir, f"spool-{round_name}")
        shutil.rmtree(spool, ignore_errors=True)
        return spool

    def damage_frame(self, spool, vantage, publish_index):
        """Flip one sealed byte of a published frame, in place."""
        name = f"v{vantage:06d}-p{publish_index:010d}.dfrm"
        path = os.path.join(spool, name)
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            data[-1] ^= 0x01  # inside the CRC-sealed region
            handle.seek(0)
            handle.write(data)

    # --- rounds ----------------------------------------------------------

    def round_clean(self, name):
        spool = self.fresh_spool(name)
        self.run_fleet(spool, {})
        skew_out = os.path.join(self.workdir, "clean.skew")
        report, raw = self.collect_stable(name, spool, skew_out=skew_out)
        if report is None:
            return
        if report.get("fleet_vantages_complete") != self.args.vantages:
            fail(f"{name}: clean fleet did not complete")
        if report.get("fleet_frames_quarantined_total", 0) != 0:
            fail(f"{name}: clean fleet quarantined frames")
        skew_text = open(skew_out, encoding="utf-8").read()
        if "fleet_epoch_skew" not in skew_text:
            fail(f"{name}: skew diagnostics report missing estimates")
        self.baseline, self.baseline_bytes = report, raw

    def round_skew_heal(self, name):
        spool = self.fresh_spool(name)
        fleet = self.args.vantages
        self.run_fleet(spool, {
            1: ("--fault-skew-offset", "1"),
            fleet // 2: ("--fault-skew-offset", "2"),
            fleet - 1: ("--fault-epoch-lag", "1"),
        })
        report, raw = self.collect_stable(name, spool)
        if report is None:
            return
        # The tentpole guarantee: within-grace skew heals to a report
        # byte-identical to the clean fleet's — not close, identical.
        if raw != self.baseline_bytes:
            fail(f"{name}: healed-skew report differs from the clean "
                 f"baseline")
        else:
            note("  healed-skew report is byte-identical to the baseline")
        if report.get("fleet_frames_quarantined_total", 0) != 0:
            fail(f"{name}: within-grace skew was quarantined")

    def round_skew_quarantine(self, name):
        spool = self.fresh_spool(name)
        epochs = self.args.epochs
        offset_v, drift_v = 2, 3
        self.run_fleet(spool, {
            offset_v: ("--fault-skew-offset", "5"),
            drift_v: ("--fault-skew-drift", "2"),
        })
        report, _ = self.collect_stable(name, spool)
        if report is None:
            return
        # Offset 5 poisons every state frame (epochs + the distinct final);
        # drift 2 heals the first barrier (skew exactly at the grace bound)
        # and poisons the rest. Exact arithmetic, nothing else.
        expected = (epochs + 1) + epochs
        got = self.quarantined(report, "excessive-skew")
        if got != expected:
            fail(f"{name}: excessive-skew quarantines {got}, "
                 f"expected {expected}")
        if report.get("fleet_frames_quarantined_total", 0) != expected:
            fail(f"{name}: unexpected extra quarantines")
        self.assert_loss_parity(name, report)
        for vantage in (offset_v, drift_v):
            if vantage_metric(report, "fleet_lost_to_vantage_total",
                              vantage) == 0:
                fail(f"{name}: skew-poisoned vantage {vantage} shows no "
                     f"loss window")

    def round_kills(self, name):
        spool = self.fresh_spool(name)
        killed = {4: 2, 9: 3}  # vantage -> frames before the crash
        codes = self.run_fleet(spool, {
            v: ("--fault-kill-after", str(n)) for v, n in killed.items()})
        for vantage in killed:
            if codes.get(vantage) != EXIT_KILLED:
                fail(f"{name}: killed vantage {vantage} exited "
                     f"{codes.get(vantage)}, expected {EXIT_KILLED}")
        report, _ = self.collect_stable(name, spool)
        if report is None:
            return
        self.assert_loss_parity(name, report)
        for vantage in killed:
            if vantage_metric(report, "fleet_lost_to_vantage_total",
                              vantage) == 0:
                fail(f"{name}: killed vantage {vantage} shows no loss")

    def round_restart(self, name):
        spool = self.fresh_spool(name)
        victim = 6
        codes = self.run_fleet(spool, {
            victim: ("--fault-kill-after", "3")})
        if codes.get(victim) != EXIT_KILLED:
            fail(f"{name}: victim exited {codes.get(victim)}")
        # The operator restarts the dead vantage; the new process counts
        # publish slots from zero again, so without the incarnation tag it
        # would overwrite its predecessor's spool files.
        result = subprocess.run(
            self.vantage_cmd(spool, victim, incarnation=1),
            capture_output=True, text=True, timeout=self.args.timeout,
            check=False)
        if result.returncode != 0:
            fail(f"{name}: restarted vantage exited {result.returncode}: "
                 f"{result.stderr.strip()}")
        report, _ = self.collect_stable(name, spool)
        if report is None:
            return
        # The replayed prefix (manifest + 2 epochs) dedupes; the fresh
        # suffix completes the vantage with zero loss.
        if self.quarantined(report, "duplicate-sequence") != 3:
            fail(f"{name}: expected exactly 3 deduped replay frames, got "
                 f"{self.quarantined(report, 'duplicate-sequence')}")
        if vantage_metric(report, "fleet_vantage_state", victim) != 2:
            fail(f"{name}: restarted vantage did not complete")
        self.assert_loss_parity(name, report)  # victim included: no loss

    def round_spool_damage(self, name):
        spool = self.fresh_spool(name)
        self.run_fleet(spool, {})
        damaged = (3, 11)
        for vantage in damaged:
            self.damage_frame(spool, vantage, 1)  # first epoch frame
        report, _ = self.collect_stable(name, spool)
        if report is None:
            return
        if self.quarantined(report, "crc-mismatch") != len(damaged):
            fail(f"{name}: crc quarantines "
                 f"{self.quarantined(report, 'crc-mismatch')}, expected "
                 f"{len(damaged)}")
        for vantage in damaged:
            if vantage_metric(report, "fleet_vantage_state", vantage) != 2:
                fail(f"{name}: damaged vantage {vantage} did not complete")
            if vantage_metric(report, "fleet_frames_missing_total",
                              vantage) != 1:
                fail(f"{name}: damaged vantage {vantage} missing-frame "
                     f"count wrong")
        self.assert_loss_parity(name, report)  # cumulative frames heal all

    def round_stall_reorder(self, name):
        spool = self.fresh_spool(name)
        self.run_fleet(spool, {
            2: ("--fault-stall", "2:2:50"),
            7: ("--fault-reorder", "2"),
        })
        report, raw = self.collect_stable(name, spool)
        if report is None:
            return
        # Stalls and reordering change delivery, not content: once the
        # fleet drains, the collector's report must match the baseline
        # byte for byte.
        if raw != self.baseline_bytes:
            fail(f"{name}: stall/reorder round did not heal to the "
                 f"baseline report")
        if report.get("fleet_frames_quarantined_total", 0) != 0:
            fail(f"{name}: lossless faults were quarantined")

    def round_mixed(self, name):
        spool = self.fresh_spool(name)
        epochs = self.args.epochs
        self.run_fleet(spool, {
            1: ("--fault-kill-after", "2"),
            5: ("--fault-skew-offset", "1"),       # heals
            8: ("--fault-duplicate", "2"),
            12: ("--fault-skew-offset", "9"),      # hopeless
        })
        self.damage_frame(spool, 15, 1)
        report, _ = self.collect_stable(name, spool)
        if report is None:
            return
        expected = {
            "duplicate-sequence": 1,
            "crc-mismatch": 1,
            "excessive-skew": epochs + 1,  # every state frame incl. final
        }
        for reason, count in expected.items():
            if self.quarantined(report, reason) != count:
                fail(f"{name}: quarantine[{reason}] == "
                     f"{self.quarantined(report, reason)}, expected {count}")
        if report.get("fleet_frames_quarantined_total", 0) != \
                sum(expected.values()):
            fail(f"{name}: unexpected extra quarantines")
        self.assert_loss_parity(name, report)

    # --- driver ----------------------------------------------------------

    def run_round(self, index, plan):
        name = f"r{index:03d}-{plan}"
        note(f"round {index}: {plan}")
        started = time.monotonic()
        getattr(self, f"round_{plan}")(name)
        elapsed = max(time.monotonic() - started, 1e-9)
        report_path = os.path.join(self.workdir, f"{name}-a.report")
        packets = 0
        if os.path.exists(report_path):
            packets = parse_report(
                open(report_path, encoding="utf-8").read()).get(
                    "fleet_routed_total", 0)
        if packets > 0:
            self.bench_rows.append({
                "name": f"fleet_soak_{plan}",
                "mode": "soak",
                "shards": self.args.vantages,
                "packets": packets,
                "reps": 1,
                "mpps": packets / elapsed / 1e6,
            })

    def run(self):
        note(f"workdir {self.workdir}")
        note(f"{self.args.vantages} vantages, {self.args.rounds} rounds, "
             f"seed {self.args.seed}")
        for index in range(self.args.rounds):
            plan = ROTATION[index % len(ROTATION)]
            if index == 0 and plan != "clean":
                plan = "clean"  # the baseline must exist first
            if self.baseline is None and plan != "clean":
                note("  (no baseline yet, forcing clean round)")
                plan = "clean"
            self.run_round(index, plan)
            if FAILURES and self.args.fail_fast:
                break
        if self.args.bench_out and self.bench_rows:
            with open(self.args.bench_out, "w", encoding="utf-8") as handle:
                json.dump({"schema": "dart-bench-v1", "bench": "fleet_soak",
                           "rows": self.bench_rows}, handle, indent=2)
                handle.write("\n")
            note(f"bench rows written to {self.args.bench_out}")
        return 1 if FAILURES else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True,
                        help="path to the dart-fleet binary")
    parser.add_argument("--vantages", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=len(ROTATION),
                        help="fault-plan rounds (cycles the rotation)")
    parser.add_argument("--connections", type=int, default=400)
    parser.add_argument("--duration-s", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timeout", type=int, default=120,
                        help="per-process timeout, seconds")
    parser.add_argument("--workdir", default=None,
                        help="keep artifacts here instead of a temp dir")
    parser.add_argument("--bench-out", default=None,
                        help="write dart-bench-v1 rows here")
    parser.add_argument("--fail-fast", action="store_true")
    args = parser.parse_args()

    if args.vantages < 16:
        print("soak: need at least 16 vantages for the fault rotation",
              file=sys.stderr)
        return 1
    if not os.access(os.path.abspath(args.binary), os.X_OK):
        print(f"soak: {args.binary} is not executable", file=sys.stderr)
        return 1

    soak = Soak(args)
    status = soak.run()
    if status == 0:
        if not args.workdir:
            shutil.rmtree(soak.workdir, ignore_errors=True)
        print(f"soak: all assertions held across {args.rounds} round(s)")
    else:
        print(f"soak: {len(FAILURES)} assertion(s) failed "
              f"(artifacts in {soak.workdir})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
