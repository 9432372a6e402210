#!/usr/bin/env python3
"""Check that mvsched_cli --help and its flag parser agree.

Usage: cli_help_check.py path/to/mvsched_cli

--help must list exactly the documented flag set below (so no flag is added
or dropped unnoticed), every listed flag must be accepted by the parser, and
a flag --help does not list must be rejected with exit code 2.
"""
import re
import subprocess
import sys

FLAGS = {
    # run options
    "scenario", "frames", "policy", "horizon", "seed", "threads",
    "no-tile-flow", "paired-rng", "verbose", "transport", "csv", "config",
    "dump-config", "help",
    # detect-or-track policy
    "frame-policy", "policy-model", "policy-staleness", "policy-drift-px",
    "policy-threshold", "policy-feature-trace", "correlation-gate",
    "gate-hold",
    # fleet serving
    "fleet", "sessions", "slo-ms", "dispatch", "session-fps",
    "session-loss-rate", "scale-devices", "readmit-interval", "split-batches",
    "dispatch-overhead-ms", "synthetic",
    "fleet-json",
    # streaming perception
    "paced", "frame-period-ms", "deadline-ms", "late-policy",
    "arrival-jitter-ms", "rt-overhead-ms",
    # city-scale scenarios
    "city-grid", "flash-crowd",
    # observability
    "chrome-trace", "metrics-json", "attribution", "postmortem-dir",
    "burn-budget",
    # network simulation
    "loss-rate", "jitter-ms", "retry-timeout-ms", "max-retries",
    "drop-camera",
}


def run(cli, args):
    return subprocess.run([cli] + args, capture_output=True, text=True,
                          timeout=60)


def main():
    cli = sys.argv[1]
    help_run = run(cli, ["--help"])
    assert help_run.returncode == 0, "--help failed"
    listed = {}
    for line in help_run.stdout.splitlines():
        m = re.match(r"^  --([a-z0-9-]+)( \S+)?", line)
        if m:
            listed[m.group(1)] = m.group(2) is not None
    errors = []
    for name in sorted(FLAGS - listed.keys()):
        errors.append(f"--{name} is missing from --help")
    for name in sorted(listed.keys() - FLAGS):
        errors.append(f"--help lists undocumented flag --{name}")

    for name, takes_value in sorted(listed.items()):
        if name == "help":
            continue
        args = ["--fleet", f"--{name}"] + (["1"] if takes_value else [])
        result = run(cli, args + ["--dump-config"])
        if "unknown flag" in result.stderr:
            errors.append(f"--{name} is listed but rejected: "
                          f"{result.stderr.strip()}")

    bogus = run(cli, ["--not-a-flag", "--dump-config"])
    if bogus.returncode != 2 or "--not-a-flag" not in bogus.stderr:
        errors.append("an unlisted flag was not rejected with exit 2")

    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"{len(listed)} flags: --help and the parser agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
