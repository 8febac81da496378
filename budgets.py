#!/usr/bin/env python3
"""Work budgets: the deterministic work each registry entry may spend.

    python3 budgets.py check RUN.jsonl   # exit 1 on any count > budget + 1%
    python3 budgets.py pin RUN.jsonl     # rewrite budgets.json from RUN.jsonl

RUN.jsonl is the whole registry at the quick horizon on the heap
backend, at any --jobs:

    mcc run --all --quick --jobs 2 --json RUN.jsonl

Each entry's budget holds four counts from its run profile: events,
sched_stats.pushes, sched_stats.max_size and minor_words.  They count
simulated work, so they do not depend on the host or its load.  Minor
words depend on the compiler, so budgets.json names the toolchain it was
pinned on and a check under any other toolchain fails with a message to
re-pin; it is never skipped.  A change that lowers a count re-pins in
the same commit.
"""

import json
import os
import subprocess
import sys

BUDGETS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "budgets.json")
BOUND = 0.01
COUNTS = ("events", "pushes", "max_size", "minor_words")


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
    return rows


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
    under = 0
    for name, row in rows.items():
        for key in COUNTS if name in budgets else ():
            value, budget = row[key], budgets[name][key]
            if value > budget * (1 + BOUND):
                failures.append(f"{name}: {key} {value} is "
                                f"{100 * (value / budget - 1):.1f}% over its "
                                f"budget {budget}")
            elif value < budget * (1 - BOUND):
                under += 1
    for failure in failures:
        print("BUDGET", failure)
    if under:
        print(f"{under} counts are more than 1% under budget: re-pin to keep "
              "the saving")
    if failures:
        sys.exit(f"work budgets: {len(failures)} failures")
    print(f"work budgets hold: {len(rows)} entries within {100 * BOUND:.0f}%")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("check", "pin"):
        sys.exit(__doc__)
    {"check": check, "pin": pin}[sys.argv[1]](sys.argv[2])
