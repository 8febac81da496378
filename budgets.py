#!/usr/bin/env python3
"""Work budgets: the deterministic work each registry entry may spend.

    python3 budgets.py check RUN.jsonl   # exit 1 on any count past its bound
    python3 budgets.py pin RUN.jsonl     # rewrite budgets.json from RUN.jsonl

RUN.jsonl is the whole registry at the quick horizon on the heap
backend, at any --jobs:

    mcc run --all --quick --jobs 2 --json RUN.jsonl

Each entry's budget holds four counts from its run profile: events,
sched_stats.pushes, sched_stats.max_size and minor_words, and a fifth,
top_heap_words, the peak major heap.  They count simulated work, so
they do not depend on the host or its load.  Peak heap is not in the
profile: budgets.py measures it for each entry in a process of its own,
`mcc run --only NAME --quick --jobs 1 --no-ledger` under
OCAMLRUNPARAM=v=0x400, and reads the `top_heap_words:` line the runtime
prints to stderr at exit, so GC reads stay out of lib/.  That takes the
mcc binary `dune build` leaves in _build/, and about 15 s for the
registry.  The peak moves by up to 3% with the length of the binary's
path (the runtime keeps it as Sys.executable_name), so each sweep runs
a copy at a path of fixed length under /tmp.  It is exact only across
builds whose module initialisation allocates the same: building
Matrix.default_attacks from the strategies at initialisation, in place
of a literal list, changed no output but moved top_heap_words on 11 of
89 entries by 1.09-3.33%, both ways, in steps of 4,096-word pools, on
entries that run no attack code.  When a peak moves on entries a change
does not touch, look for new allocation at module initialisation
before re-pinning.  Events, pushes, max_size
and top_heap_words may run 1% over budget.  Minor words repeat exactly
except that the first spec a domain runs reads up to 202 words more
(0.05% of the smallest budget), so they may run only 0.1% over: at 1%,
one extra `ref` per routed packet stayed inside the bound of every
FLID-DS entry.  Minor words depend on the compiler, so budgets.json names the
toolchain it was pinned on and a check under any other toolchain fails
with a message to re-pin; it is never skipped.  A change that lowers a
count re-pins in the same commit: a count further under its budget than
its bound fails the check too, named like an overrun, so a saving is
kept rather than left as slack a later regression could spend.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BUDGETS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "budgets.json")
# The share of its budget a count may run over.
BOUNDS = {"events": 0.01, "pushes": 0.01, "max_size": 0.01, "minor_words": 0.001,
          "top_heap_words": 0.01}
MCC = os.path.join(os.path.dirname(BUDGETS), "_build", "default", "bin", "mcc.exe")


def toolchain():
    try:
        ocaml = subprocess.run(
            ["ocamlc", "-version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        ocaml = "unknown"
    return {"ocaml": ocaml, "profile": os.environ.get("DUNE_PROFILE", "dev")}


def counts(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            profile = row["profile"]
            if profile["sched"] != "heap":
                sys.exit(f"{path}: {row['name']} ran on {profile['sched']}; "
                         "budgets count heap runs")
            stats = profile["sched_stats"]
            rows[row["name"]] = {
                "events": profile["events"],
                "pushes": stats["pushes"],
                "max_size": stats["max_size"],
                "minor_words": profile["minor_words"],
            }
    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        shutil.copy(MCC, os.path.join(tmp, "mcc"))
        for name, row in rows.items():
            row["top_heap_words"] = top_heap_words(tmp, name)
    return rows


def top_heap_words(tmp, name):
    run = subprocess.run(
        ["./mcc", "run", "--only", name, "--quick", "--jobs", "1",
         "--no-ledger", "--quiet", "--no-progress"],
        cwd=tmp, env=dict(os.environ, OCAMLRUNPARAM="v=0x400"),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit(f"mcc run --only {name} exited {run.returncode}:\n"
                 + run.stderr)
    for line in run.stderr.splitlines():
        if line.startswith("top_heap_words:"):
            return int(line.split()[1])
    sys.exit(f"{name}: the runtime printed no top_heap_words line")


def pin(path):
    rows = counts(path)
    lines = [f"  {json.dumps(name)}: {json.dumps(c)}" for name, c in rows.items()]
    with open(BUDGETS, "w") as f:
        f.write('{"toolchain": %s,\n "budgets": {\n' % json.dumps(toolchain()))
        f.write(",\n".join(lines))
        f.write("\n }}\n")
    print(f"pinned {len(rows)} budgets to {BUDGETS}")


def check(path):
    with open(BUDGETS) as f:
        pinned = json.load(f)
    here = toolchain()
    if pinned["toolchain"] != here:
        sys.exit(f"budgets.json was pinned on {pinned['toolchain']}, this is "
                 f"{here}: minor words differ across toolchains, so re-pin "
                 "with `python3 budgets.py pin RUN.jsonl`")
    budgets = pinned["budgets"]
    rows = counts(path)
    failures = [f"{n}: registry entry has no budget row"
                for n in rows if n not in budgets]
    failures += [f"{n}: budget row has no registry entry"
                 for n in budgets if n not in rows]
    for name, row in rows.items():
        for key, bound in BOUNDS.items() if name in budgets else ():
            value, budget = row[key], budgets[name][key]
            if value > budget * (1 + bound):
                failures.append(f"{name}: {key} {value} is "
                                f"{100 * (value / budget - 1):.2f}% over its "
                                f"budget {budget}")
            elif value < budget * (1 - bound):
                failures.append(f"{name}: {key} {value} is "
                                f"{100 * (1 - value / budget):.2f}% under its "
                                f"budget {budget}: re-pin to keep the saving")
    for failure in failures:
        print("BUDGET", failure)
    if failures:
        sys.exit(f"work budgets: {len(failures)} failures")
    print(f"work budgets hold: {len(rows)} entries within bounds")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("check", "pin"):
        sys.exit(__doc__)
    {"check": check, "pin": pin}[sys.argv[1]](sys.argv[2])
