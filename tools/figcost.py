#!/usr/bin/env python3
"""What each figure binary costs the host to regenerate its figure.

    python3 tools/figcost.py NAME=BIN_DIR [NAME=BIN_DIR ...]

Runs every binary in BINARIES from each BIN_DIR (a `target/release` of
some build) at `--scale 16 --seed 42`, one child process at a time. For each
binary the builds take turns, the first going first on even binaries and
last on odd ones. Each run records the wall seconds, the child's peak RSS
(`os.wait4`) and the SHA-256 of its stdout; tools/figcost.json is rewritten
with one row per run, and a markdown table goes to stdout. Exits 1 if a
binary fails or if its stdout differs between builds: a figure that prints
other bytes is a behaviour change, not a cost.

Run nothing else beside it; every figure runs its cells on one thread.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BINARIES = (
    "fig1 fig3 fig5 fig6 fig7 fig8 fig9 fig10 figr figu table1 kvbench ablation"
).split()
ARGS = ["--scale", "16", "--seed", "42"]
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "figcost.json")


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return f"{os.cpu_count()} CPUs, {model or platform.machine()}, {platform.system()}"


def run(exe):
    """Wall seconds, peak RSS in MB, stdout digest and exit code of one run."""
    start = time.monotonic()
    child = subprocess.Popen([exe, *ARGS], stdout=subprocess.PIPE)
    digest = hashlib.sha256(child.stdout.read()).hexdigest()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return round(wall, 2), round(usage.ru_maxrss / 1024, 1), digest, child.returncode


def main(argv):
    builds = [arg.split("=", 1) for arg in argv]
    if not builds or any(len(build) != 2 for build in builds):
        sys.exit(__doc__)
    rows, ok = [], True
    for k, binary in enumerate(BINARIES):
        order = builds if k % 2 == 0 else builds[::-1]
        for name, bin_dir in order:
            wall, rss, digest, code = run(os.path.join(bin_dir, binary))
            ok &= code == 0
            rows.append(
                {"build": name, "binary": binary, "wall_s": wall, "peak_rss_mb": rss,
                 "stdout_sha256": digest, "exit": code}
            )
            print(f"{name} {binary}: {wall} s, {rss} MB, exit {code}", file=sys.stderr)
    with open(OUT, "w") as out:
        out.write('{\n  "args": %s,\n  "host": %s,\n  "rows": [\n' % (json.dumps(" ".join(ARGS)), json.dumps(host())))
        out.write(",\n".join("    " + json.dumps(row) for row in rows))
        out.write("\n  ]\n}\n")

    names = [name for name, _ in builds]
    cell = {(row["build"], row["binary"]): row for row in rows}
    print("| binary | " + " | ".join(f"{n} wall (s)" for n in names)
          + " | " + " | ".join(f"{n} peak RSS (MB)" for n in names) + " | same stdout |")
    print("| --- " * (2 * len(names) + 2) + "|")
    for binary in BINARIES:
        got = [cell[(n, binary)] for n in names]
        same = len({row["stdout_sha256"] for row in got}) == 1
        ok &= same
        print(f"| `{binary}` | " + " | ".join(str(row["wall_s"]) for row in got)
              + " | " + " | ".join(str(row["peak_rss_mb"]) for row in got)
              + f" | {'yes' if same else 'NO'} |")
    totals = [round(sum(cell[(n, b)]["wall_s"] for b in BINARIES), 1) for n in names]
    print("| total | " + " | ".join(map(str, totals)) + " |" + " |" * (len(names) + 1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
