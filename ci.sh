#!/bin/sh
# Tier-1 gate: build, test suite, and a smoke batch through the
# experiment registry (2 domains, abbreviated durations, JSONL sink).
set -eux

# Every mcc run/matrix/profile below records a run-ledger entry; point
# the ledger at a scratch directory so CI never touches .mcc/ in the
# working tree.
MCC_LEDGER="$(mktemp -d)/ledger"
export MCC_LEDGER

dune build
dune runtest

# Invariant lint gate: the static-analysis pass (lib/lint) must find no
# determinism or domain-safety violations — wall-clock reads, ambient
# randomness, shared top-level mutable state, polymorphic float
# compares, missing .mli, GC reads outside lib/obs, and the typed-tree
# rules (domain-escape, hot-alloc, registry-exhaustive) — anywhere in
# lib/bin/examples.
dune build @lint

# The typed stage must have genuinely run, not silently degraded to the
# syntactic subset: the JSON report has to show .cmts loaded.  (This is
# what catches a build-layout drift that moves the .cmt files.)
dune build @check
dune exec bin/mcc.exe -- lint --json=- lib bin examples > /tmp/lint.json
grep -q '"cmts_loaded":[1-9]' /tmp/lint.json
grep -q '"findings":\[\]' /tmp/lint.json
# ... and the lint run itself must have landed in the ledger.
MCC_LEDGER_COUNT="$(grep -c '"kind":"lint"' "$MCC_LEDGER/ledger.jsonl")"
test "$MCC_LEDGER_COUNT" -ge 1

# Deep-lint canary: an injected Domain.spawn closure capturing a ref
# must fail the lint with a domain-escape finding naming the file.
cp lib/util/prng.ml /tmp/prng-orig.ml
trap 'cp /tmp/prng-orig.ml lib/util/prng.ml' EXIT
cat >> lib/util/prng.ml <<'EOF'

let _lint_canary () =
  let r = ref 0 in
  let d = Domain.spawn (fun () -> incr r) in
  Domain.join d;
  !r
EOF
dune build @check
if dune exec bin/mcc.exe -- lint --no-ledger --allow lint.allow \
  lib/util/prng.ml > /tmp/lint-canary.txt 2>&1; then
  cp /tmp/prng-orig.ml lib/util/prng.ml
  echo "lint failed to flag an injected domain escape" >&2
  exit 1
fi
grep -q "domain-escape" /tmp/lint-canary.txt
grep -q "prng.ml" /tmp/lint-canary.txt
cp /tmp/prng-orig.ml lib/util/prng.ml
trap - EXIT
dune build @check
dune exec bin/mcc.exe -- run --all --quick --jobs 2 --json /tmp/out.jsonl --quiet
test -s /tmp/out.jsonl

# Work budgets: every registry entry's events, scheduler pushes, queue
# high-water and minor words must stay within 1% of budgets.json.  They
# count simulated work, so the gate cannot flake with host speed; every
# entry needs a budget row and every row an entry.  Re-pin with
# `python3 budgets.py pin /tmp/out.jsonl` when a change lowers a count.
python3 budgets.py check /tmp/out.jsonl

# ... and the same registry batch on the wheel backend must give the
# same rows once each row's profile object (wall clock, backend name,
# queue storage) is dropped.  The matrix checks below cover attack
# cells only; this covers every figure, sweeps included.
dune exec bin/mcc.exe -- run --all --quick --jobs 2 --sched wheel \
  --json /tmp/out-wheel.jsonl --quiet
python3 - <<'EOF'
import json


def rows(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    for row in rows:
        row.pop("profile", None)
    return [json.dumps(row, sort_keys=True) for row in rows]


heap, wheel = rows("/tmp/out.jsonl"), rows("/tmp/out-wheel.jsonl")
assert len(heap) == len(wheel), (len(heap), len(wheel))
for h, w in zip(heap, wheel):
    assert h == w, "heap and wheel rows differ: " + json.loads(h)["name"]
print("registry runs backend-independent:", len(heap), "rows")
EOF

# Telemetry smoke: a metrics-enabled run must emit parseable JSONL with
# a busy bottleneck (nonzero link.drops on fig1's congested link).
dune exec bin/mcc.exe -- run --only fig1 --quick --json /tmp/out2.jsonl \
  --metrics=/tmp/m.jsonl --quiet
test -s /tmp/out2.jsonl
test -s /tmp/m.jsonl
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json

for path in ("/tmp/out.jsonl", "/tmp/out2.jsonl", "/tmp/m.jsonl"):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    assert rows, f"{path}: empty"

with open("/tmp/m.jsonl") as f:
    row = json.loads(f.readline())
assert row["name"] == "fig1", row
assert row["metrics"]["link.drops"] > 0, "fig1 bottleneck never dropped"
assert row["metrics"]["engine.events"] > 0
assert row["profile"]["events"] == row["metrics"]["engine.events"]
print("telemetry smoke ok")
EOF
fi

# Time-series + forensics smoke: a sampled run, a warn-level trace, and
# an offline report over both (no rerun).
dune exec bin/mcc.exe -- run --only fig7 --quick --series=/tmp/series.jsonl \
  --sample-dt 0.5 --quiet
test -s /tmp/series.jsonl
dune exec bin/mcc.exe -- trace --only fig7 --quick --filter sigma \
  --level warn --out /tmp/trace.jsonl
dune exec bin/mcc.exe -- report --series /tmp/series.jsonl \
  --trace /tmp/trace.jsonl > /tmp/report.md
test -s /tmp/report.md
grep -q "SIGMA forensics timeline" /tmp/report.md
grep -q "Throughput recovery" /tmp/report.md
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json

with open("/tmp/series.jsonl") as f:
    row = json.loads(f.readline())
assert row["name"] == "fig7", row
assert row["series"], "no series sampled"
assert any(k.endswith(".goodput_kbps") for k in row["series"]), row["series"].keys()
assert all(
    all(len(p) == 2 for p in pts) for pts in row["series"].values()
), "series points are not [t, v] pairs"
print("series smoke ok")
EOF
fi

# Profiler smoke: a profiled matrix attack cell must produce a
# self-time table, non-empty folded stacks, valid JSON, and a
# containment critical path that names the first rejected key; the
# offline report path must render the per-hop latency section from the
# saved JSON alone.
dune exec bin/mcc.exe -- profile matrix-inflate-flid-delta+sigma --quick \
  -o /tmp/profile.md --folded /tmp/profile.folded --json /tmp/profile.json
test -s /tmp/profile.md
test -s /tmp/profile.folded
test -s /tmp/profile.json
grep -q "## Self time" /tmp/profile.md
grep -q "Containment critical path" /tmp/profile.md
grep -q "key 0x" /tmp/profile.md
dune exec bin/mcc.exe -- report --series /tmp/series.jsonl \
  --profile /tmp/profile.json > /tmp/report2.md
grep -q "Per-hop containment latency" /tmp/report2.md
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json

with open("/tmp/profile.json") as f:
    doc = json.load(f)
assert doc["name"] == "matrix-inflate-flid-delta+sigma", doc["name"]
assert doc["prof"], "empty span tree"
assert doc["lineage"]["transitions"], "no hop transitions"
assert any(c["kind"] == "key_reject" for c in doc["lineage"]["cases"])
assert doc["profile"]["sched_stats"]["pushes"] > 0
with open("/tmp/profile.folded") as f:
    folded = [l for l in f if l.strip()]
assert folded and all(l.rsplit(" ", 1)[1].strip().isdigit() for l in folded)
print("profiler smoke ok")
EOF
fi

# Attack-matrix smoke: a tiny grid at full duration (containment needs
# the real horizon), scorecard showing the paper's headline, and the
# JSONL byte-identical across job counts.
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --json /tmp/matrix1.jsonl \
  --out /tmp/scorecard.md --quiet
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --jobs 2 --json /tmp/matrix2.jsonl --quiet
cmp /tmp/matrix1.jsonl /tmp/matrix2.jsonl
# ... and byte-identical again on the calendar-queue backend: the
# scheduler is a performance knob, never a semantics knob.
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --sched wheel --json /tmp/matrix3.jsonl --quiet
cmp /tmp/matrix1.jsonl /tmp/matrix3.jsonl
test -s /tmp/scorecard.md
grep -q "BREACH" /tmp/scorecard.md
grep -q "contained" /tmp/scorecard.md
grep -q "DELTA+SIGMA contains every attack" /tmp/scorecard.md
# ... and the same guard over every protocol column: the default
# 96-cell matrix at the quick horizon, at one and two jobs and on the
# wheel backend.
dune exec bin/mcc.exe -- matrix --quick --json /tmp/matrix-q1.jsonl --quiet
dune exec bin/mcc.exe -- matrix --quick --jobs 2 \
  --json /tmp/matrix-q2.jsonl --quiet
dune exec bin/mcc.exe -- matrix --quick --jobs 2 --sched wheel \
  --json /tmp/matrix-q3.jsonl --quiet
cmp /tmp/matrix-q1.jsonl /tmp/matrix-q2.jsonl
cmp /tmp/matrix-q1.jsonl /tmp/matrix-q3.jsonl

# Workload smoke: every committed workload file must validate, and
# every run through the declarative pipeline must stay byte-identical
# across job counts, just like the matrix above.
dune exec bin/mcc.exe -- workload check --all
for W in workloads/*.json; do
  dune exec bin/mcc.exe -- workload run "$W" --quick \
    --json /tmp/workload1.jsonl --quiet
  dune exec bin/mcc.exe -- workload run "$W" --quick --jobs 4 \
    --json /tmp/workload2.jsonl --quiet
  cmp /tmp/workload1.jsonl /tmp/workload2.jsonl
done
# ... and a malformed document must be rejected with a nonzero exit.
printf '{"version": 1, "name": "bad"}\n' > /tmp/bad-workload.json
if dune exec bin/mcc.exe -- workload check /tmp/bad-workload.json \
  2>/tmp/bad-workload.err; then
  echo "workload check accepted a malformed document" >&2
  exit 1
fi
grep -q "duration" /tmp/bad-workload.err

# Benchmark output checks: a short seed-1 run of each BENCHMARK.json
# workload must reproduce the committed digests (perfbench/digests.json)
# with no failed simulation.
for W in flid-sweep threshold-keys; do
  python3 perfbench/run.py --workload "$W" --seed 1 --seconds 3 --trace 0 \
    > "/tmp/perfbench-$W.txt"
  tail -n 1 "/tmp/perfbench-$W.txt" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert r["correct"] is True and r["failed"] == 0, r
print("perfbench", r["attempted"], "runs ok")
'
done

# Run-ledger smoke: two identical runs into a fresh ledger list as two
# entries sharing one config digest, and diffing them reports zero
# deterministic-field drift.  The loose threshold keeps host noise on
# the wall-derived events/s figures from tripping the regression flag.
LEDGER_SCRATCH="$(mktemp -d)/ledger"
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- run --only fig1 \
  --quick --quiet
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- run --only fig1 \
  --quick --quiet
test "$(wc -l < "$LEDGER_SCRATCH/ledger.jsonl")" -eq 2
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- history \
  > /tmp/history.txt
test "$(grep -c "fig1" /tmp/history.txt)" -ge 2
grep -q "trend events_per_sec over 2 entries" /tmp/history.txt
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- diff 1 2 \
  --threshold 0.9 > /tmp/diff.txt
grep -q "digests match" /tmp/diff.txt
grep -q "payload: 0 deterministic fields drifted" /tmp/diff.txt

# ... and an injected regression must flip diff to exit 1 and name the
# dropped figure: the first entry against a copy whose fig1 events/s is
# cut to 40%.
head -n 1 "$LEDGER_SCRATCH/ledger.jsonl" > /tmp/entry-a.json
python3 - <<'EOF'
import json

with open("/tmp/entry-a.json") as f:
    entry = json.load(f)
entry["wall"]["figures"]["fig1"] *= 0.4
with open("/tmp/entry-b.json", "w") as f:
    json.dump(entry, f)
EOF
if dune exec bin/mcc.exe -- diff /tmp/entry-a.json /tmp/entry-b.json \
  > /tmp/diff-reg.txt; then
  echo "diff failed to flag an injected regression" >&2
  exit 1
fi
grep -q "fig1 .*REGRESSION" /tmp/diff-reg.txt

# OpenMetrics exposition smoke: well-formed families (TYPE + HELP, the
# counter _total suffix, per-run labels) and the single EOF marker.
dune exec bin/mcc.exe -- run --only fig1 --quick --no-ledger \
  --metrics /tmp/metrics.om --metrics-format openmetrics --quiet
grep -q "^# TYPE mcc_engine_events counter$" /tmp/metrics.om
grep -q "^# HELP mcc_engine_events " /tmp/metrics.om
grep -q '^mcc_engine_events_total{run="fig1"} [1-9]' /tmp/metrics.om
test "$(tail -n 1 /tmp/metrics.om)" = "# EOF"
test "$(grep -c '^# EOF$' /tmp/metrics.om)" -eq 1

# Live telemetry is stderr-only observation: forcing the meter on must
# not change a single sink byte (cmp against the meter-off matrix
# output above).
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --jobs 2 --progress \
  --json /tmp/matrix4.jsonl --quiet
cmp /tmp/matrix1.jsonl /tmp/matrix4.jsonl

# Machine-readable registry listing.
dune exec bin/mcc.exe -- list --json > /tmp/list.json
grep -q '"experiments":' /tmp/list.json
grep -q '"groups":' /tmp/list.json
