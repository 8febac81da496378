#!/bin/sh
# Tier-1 gate: build, test suite, and a smoke batch through the
# experiment registry (2 domains, abbreviated durations, JSONL sink).
# It writes only under one fresh scratch directory and never edits the
# working tree, so a killed run leaves the checkout clean and two runs
# at once share no file.
set -eux

SCRATCH="$(mktemp -d)"
export SCRATCH
trap 'rm -rf "$SCRATCH"' EXIT

# Every mcc run/matrix/profile below records a run-ledger entry; point
# the ledger at the scratch directory so CI never touches .mcc/ in the
# working tree.
MCC_LEDGER="$SCRATCH/ledger"
export MCC_LEDGER

dune build
dune runtest

# Invariant lint gate: the static-analysis pass (lib/lint) must find no
# determinism or domain-safety violations — wall-clock reads, ambient
# randomness, shared top-level mutable state, polymorphic float
# compares, missing .mli, GC reads outside lib/obs, and the typed-tree
# rules (domain-escape, hot-alloc, hot-poly-compare,
# registry-exhaustive) — anywhere in lib/bin/examples.
dune build @lint

# The typed stage must have genuinely run, not silently degraded to the
# syntactic subset: the JSON report has to show .cmts loaded.  (This is
# what catches a build-layout drift that moves the .cmt files.)
dune build @check
dune exec bin/mcc.exe -- lint --json=- lib bin examples > "$SCRATCH/lint.json"
grep -q '"cmts_loaded":[1-9]' "$SCRATCH/lint.json"
grep -q '"findings":\[\]' "$SCRATCH/lint.json"
# ... and the lint run itself must have landed in the ledger.
MCC_LEDGER_COUNT="$(grep -c '"kind":"lint"' "$MCC_LEDGER/ledger.jsonl")"
test "$MCC_LEDGER_COUNT" -ge 1

# Deep-lint canary: the committed typed fixture, a Domain.spawn closure
# capturing a ref, must fail the lint with a domain-escape finding
# naming the file (@check above compiled its .cmt).
CANARY=test/lint_fixtures/typed/domain_escape_bad.ml
if dune exec bin/mcc.exe -- lint --no-ledger --allow lint.allow \
  "$CANARY" > "$SCRATCH/lint-canary.txt" 2>&1; then
  echo "lint failed to flag a domain escape in $CANARY" >&2
  exit 1
fi
grep -q "domain-escape" "$SCRATCH/lint-canary.txt"
grep -q "domain_escape_bad.ml" "$SCRATCH/lint-canary.txt"
dune exec bin/mcc.exe -- run --all --quick --jobs 2 \
  --json "$SCRATCH/out.jsonl" --quiet
test -s "$SCRATCH/out.jsonl"

# Work budgets: every registry entry's events, scheduler pushes, queue
# high-water and peak heap words must stay within 1% of budgets.json,
# and its minor words within 0.1%.  Peak heap is measured per entry in
# a process of its own (about 15 s for the registry).  They count
# simulated work, so the gate cannot flake with host speed; every
# entry needs a budget row and every row an entry.  Re-pin with
# `python3 budgets.py pin OUT.jsonl` over the same batch when a change
# lowers a count.
python3 budgets.py check "$SCRATCH/out.jsonl"

# ... and the same registry batch on the wheel backend must give the
# same rows once each row's profile object (wall clock, backend name,
# queue storage) is dropped.  The matrix checks below cover attack
# cells only; this covers every figure, sweeps included.
dune exec bin/mcc.exe -- run --all --quick --jobs 2 --sched wheel \
  --json "$SCRATCH/out-wheel.jsonl" --quiet
python3 - <<'EOF'
import json
import os

SCRATCH = os.environ["SCRATCH"]


def rows(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    for row in rows:
        row.pop("profile", None)
    return [json.dumps(row, sort_keys=True) for row in rows]


heap = rows(os.path.join(SCRATCH, "out.jsonl"))
wheel = rows(os.path.join(SCRATCH, "out-wheel.jsonl"))
assert len(heap) == len(wheel), (len(heap), len(wheel))
for h, w in zip(heap, wheel):
    assert h == w, "heap and wheel rows differ: " + json.loads(h)["name"]
print("registry runs backend-independent:", len(heap), "rows")
EOF

# Randomized pass: the canonical output set (canonical.sh, the set
# identity.sh compares) once more under OCAMLRUNPARAM=R, which seeds
# every generic Hashtbl at random, `cmp`ed file by file against a normal
# pass: no output may depend on hash-table order.  One R run misses an
# order dependence among k tied records with a chance of about 1/k!
# (1/2 for a pair), so the pass runs on every CI run, and a dependence
# that slips through once is caught soon.
. ./canonical.sh
registry_names _build/default/bin/mcc.exe > "$SCRATCH/names"
ONLY="$(paste -sd, "$SCRATCH/names")"
WORKLOADS="$(ls workloads/*.json)"
canonical_outputs "$PWD" "$SCRATCH/canon"
(
  OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}R"
  export OCAMLRUNPARAM
  canonical_outputs "$PWD" "$SCRATCH/canon-r"
)
FAILED=0
compare_outputs "$SCRATCH/canon" "$SCRATCH/canon-r" "R: "
test "$FAILED" -eq 0

# Telemetry smoke: a metrics-enabled run must emit parseable JSONL with
# a busy bottleneck (nonzero link.drops on fig1's congested link).
dune exec bin/mcc.exe -- run --only fig1 --quick --json "$SCRATCH/out2.jsonl" \
  --metrics="$SCRATCH/m.jsonl" --quiet
test -s "$SCRATCH/out2.jsonl"
test -s "$SCRATCH/m.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
import os

SCRATCH = os.environ["SCRATCH"]

for name in ("out.jsonl", "out2.jsonl", "m.jsonl"):
    path = os.path.join(SCRATCH, name)
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    assert rows, f"{path}: empty"

with open(os.path.join(SCRATCH, "m.jsonl")) as f:
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
dune exec bin/mcc.exe -- run --only fig7 --quick \
  --series="$SCRATCH/series.jsonl" \
  --sample-dt 0.5 --quiet
test -s "$SCRATCH/series.jsonl"
dune exec bin/mcc.exe -- trace --only fig7 --quick --filter sigma \
  --level warn --out "$SCRATCH/trace.jsonl"
dune exec bin/mcc.exe -- report --series "$SCRATCH/series.jsonl" \
  --trace "$SCRATCH/trace.jsonl" > "$SCRATCH/report.md"
test -s "$SCRATCH/report.md"
grep -q "SIGMA forensics timeline" "$SCRATCH/report.md"
grep -q "Throughput recovery" "$SCRATCH/report.md"
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
import os

SCRATCH = os.environ["SCRATCH"]

with open(os.path.join(SCRATCH, "series.jsonl")) as f:
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
  -o "$SCRATCH/profile.md" --folded "$SCRATCH/profile.folded" \
  --json "$SCRATCH/profile.json"
test -s "$SCRATCH/profile.md"
test -s "$SCRATCH/profile.folded"
test -s "$SCRATCH/profile.json"
grep -q "## Self time" "$SCRATCH/profile.md"
grep -q "Containment critical path" "$SCRATCH/profile.md"
grep -q "key 0x" "$SCRATCH/profile.md"
dune exec bin/mcc.exe -- report --series "$SCRATCH/series.jsonl" \
  --profile "$SCRATCH/profile.json" > "$SCRATCH/report2.md"
grep -q "Per-hop containment latency" "$SCRATCH/report2.md"
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
import os

SCRATCH = os.environ["SCRATCH"]

with open(os.path.join(SCRATCH, "profile.json")) as f:
    doc = json.load(f)
assert doc["name"] == "matrix-inflate-flid-delta+sigma", doc["name"]
assert doc["prof"], "empty span tree"
assert doc["lineage"]["transitions"], "no hop transitions"
assert any(c["kind"] == "key_reject" for c in doc["lineage"]["cases"])
assert doc["profile"]["sched_stats"]["pushes"] > 0
with open(os.path.join(SCRATCH, "profile.folded")) as f:
    folded = [l for l in f if l.strip()]
assert folded and all(l.rsplit(" ", 1)[1].strip().isdigit() for l in folded)
print("profiler smoke ok")
EOF
fi

# Attack-matrix smoke: a tiny grid at full duration (containment needs
# the real horizon), scorecard showing the paper's headline, and the
# JSONL byte-identical across job counts.
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --json "$SCRATCH/matrix1.jsonl" \
  --out "$SCRATCH/scorecard.md" --quiet
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --jobs 2 --json "$SCRATCH/matrix2.jsonl" --quiet
cmp "$SCRATCH/matrix1.jsonl" "$SCRATCH/matrix2.jsonl"
# ... and byte-identical again on the calendar-queue backend: the
# scheduler is a performance knob, never a semantics knob.
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --sched wheel \
  --json "$SCRATCH/matrix3.jsonl" --quiet
cmp "$SCRATCH/matrix1.jsonl" "$SCRATCH/matrix3.jsonl"
test -s "$SCRATCH/scorecard.md"
grep -q "BREACH" "$SCRATCH/scorecard.md"
grep -q "contained" "$SCRATCH/scorecard.md"
grep -q "DELTA+SIGMA contains every attack" "$SCRATCH/scorecard.md"
# ... and the same guard over every protocol column: the default
# 96-cell matrix at the quick horizon, at one and two jobs and on the
# wheel backend.
dune exec bin/mcc.exe -- matrix --quick \
  --json "$SCRATCH/matrix-q1.jsonl" --quiet
dune exec bin/mcc.exe -- matrix --quick --jobs 2 \
  --json "$SCRATCH/matrix-q2.jsonl" --quiet
dune exec bin/mcc.exe -- matrix --quick --jobs 2 --sched wheel \
  --json "$SCRATCH/matrix-q3.jsonl" --quiet
cmp "$SCRATCH/matrix-q1.jsonl" "$SCRATCH/matrix-q2.jsonl"
cmp "$SCRATCH/matrix-q1.jsonl" "$SCRATCH/matrix-q3.jsonl"

# Workload smoke: every committed workload file must validate, and
# every run through the declarative pipeline must stay byte-identical
# across job counts, just like the matrix above.
dune exec bin/mcc.exe -- workload check --all
for W in workloads/*.json; do
  dune exec bin/mcc.exe -- workload run "$W" --quick \
    --json "$SCRATCH/workload1.jsonl" --quiet
  dune exec bin/mcc.exe -- workload run "$W" --quick --jobs 4 \
    --json "$SCRATCH/workload2.jsonl" --quiet
  cmp "$SCRATCH/workload1.jsonl" "$SCRATCH/workload2.jsonl"
done
# ... and a malformed document must be rejected with a diagnostic
# naming the file and exit 2: one without a duration, one whose
# duration is not a number, one whose duration overflows to infinity
# (it would run without end), one whose diurnal churn period is so
# short that its churn plan would exhaust memory, and the committed
# fat-tree flash crowd with max_int arrivals, whose seat count would
# wrap negative.
printf '{"version": 1, "name": "bad"}\n' > "$SCRATCH/bad-workload.json"
printf '{"version": 1, "name": "bad", "duration": 1e}\n' \
  > "$SCRATCH/bad-number.json"
printf '{"version": 1, "name": "bad", "duration": 1e999}\n' \
  > "$SCRATCH/bad-infinite.json"
printf '%s\n' '{"version": 1, "name": "bad", "duration": 20,
  "topology": {"kind": "dumbbell"}, "protocol": "flid",
  "defence": "plain", "receivers": 2,
  "churn": {"kind": "diurnal", "period": 1e-7, "fraction": 0.5}}' \
  > "$SCRATCH/bad-period.json"
python3 - <<'EOF'
import json
import os

with open("workloads/fat_tree_flash_crowd.json") as f:
    doc = json.load(f)
doc["churn"]["arrivals"] = 4611686018427387903
with open(os.path.join(os.environ["SCRATCH"], "bad-seats.json"), "w") as f:
    json.dump(doc, f)
EOF
for BAD in bad-workload bad-number bad-infinite bad-period bad-seats; do
  STATUS=0
  dune exec bin/mcc.exe -- workload check "$SCRATCH/$BAD.json" \
    2> "$SCRATCH/$BAD.err" || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "workload check exited $STATUS on $BAD.json" >&2
    exit 1
  fi
  grep -q "$BAD.json" "$SCRATCH/$BAD.err"
done
grep -q "duration" "$SCRATCH/bad-workload.err"
grep -q "churn.period" "$SCRATCH/bad-period.err"
grep -q "receivers" "$SCRATCH/bad-seats.err"
grep -q "churn.arrivals" "$SCRATCH/bad-seats.err"
# ... and so must a non-finite timing option on the command line, naming
# the option.  The timeout bounds the check: a NaN attack time that got
# through would run its cell without end.
reject() {
  OPTION="$1"
  shift
  STATUS=0
  timeout 60 dune exec bin/mcc.exe -- "$@" 2> "$SCRATCH/reject.err" \
    || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "mcc $* exited $STATUS" >&2
    exit 1
  fi
  grep -q -- "$OPTION" "$SCRATCH/reject.err"
}
reject --sample-dt run --only fig1 --quick \
  --series "$SCRATCH/bad-series.jsonl" --sample-dt nan
reject --attack-at matrix --attacks inflate --protocols flid \
  --defences plain --attack-at nan --quiet

# Benchmark output checks: a short seed-1 run of each BENCHMARK.json
# workload must reproduce the committed digests (perfbench/digests.json)
# with no failed simulation.
for W in flid-sweep threshold-keys; do
  python3 perfbench/run.py --workload "$W" --seed 1 --seconds 3 --trace 0 \
    > "$SCRATCH/perfbench-$W.txt"
  tail -n 1 "$SCRATCH/perfbench-$W.txt" | python3 -c '
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
LEDGER_SCRATCH="$SCRATCH/ledger-smoke"
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- run --only fig1 \
  --quick --quiet
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- run --only fig1 \
  --quick --quiet
test "$(wc -l < "$LEDGER_SCRATCH/ledger.jsonl")" -eq 2
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- history \
  > "$SCRATCH/history.txt"
test "$(grep -c "fig1" "$SCRATCH/history.txt")" -ge 2
grep -q "trend events_per_sec over 2 entries" "$SCRATCH/history.txt"
MCC_LEDGER="$LEDGER_SCRATCH" dune exec bin/mcc.exe -- diff 1 2 \
  --threshold 0.9 > "$SCRATCH/diff.txt"
grep -q "digests match" "$SCRATCH/diff.txt"
grep -q "payload: 0 deterministic fields drifted" "$SCRATCH/diff.txt"

# ... and an injected regression must flip diff to exit 1 and name the
# dropped figure: the first entry against a copy whose fig1 events/s is
# cut to 40%.
head -n 1 "$LEDGER_SCRATCH/ledger.jsonl" > "$SCRATCH/entry-a.json"
python3 - <<'EOF'
import json
import os

SCRATCH = os.environ["SCRATCH"]

with open(os.path.join(SCRATCH, "entry-a.json")) as f:
    entry = json.load(f)
entry["wall"]["figures"]["fig1"] *= 0.4
with open(os.path.join(SCRATCH, "entry-b.json"), "w") as f:
    json.dump(entry, f)
EOF
if dune exec bin/mcc.exe -- diff "$SCRATCH/entry-a.json" \
  "$SCRATCH/entry-b.json" \
  > "$SCRATCH/diff-reg.txt"; then
  echo "diff failed to flag an injected regression" >&2
  exit 1
fi
grep -q "fig1 .*REGRESSION" "$SCRATCH/diff-reg.txt"

# OpenMetrics exposition smoke: well-formed families (TYPE + HELP, the
# counter _total suffix, per-run labels) and the single EOF marker.
dune exec bin/mcc.exe -- run --only fig1 --quick --no-ledger \
  --metrics "$SCRATCH/metrics.om" --metrics-format openmetrics --quiet
grep -q "^# TYPE mcc_engine_events counter$" "$SCRATCH/metrics.om"
grep -q "^# HELP mcc_engine_events " "$SCRATCH/metrics.om"
grep -q '^mcc_engine_events_total{run="fig1"} [1-9]' "$SCRATCH/metrics.om"
test "$(tail -n 1 "$SCRATCH/metrics.om")" = "# EOF"
test "$(grep -c '^# EOF$' "$SCRATCH/metrics.om")" -eq 1

# Live telemetry is stderr-only observation: forcing the meter on must
# not change a single sink byte (cmp against the meter-off matrix
# output above).
dune exec bin/mcc.exe -- matrix --attacks inflate --protocols flid \
  --defences plain,delta+sigma --jobs 2 --progress \
  --json "$SCRATCH/matrix4.jsonl" --quiet
cmp "$SCRATCH/matrix1.jsonl" "$SCRATCH/matrix4.jsonl"

# Machine-readable registry listing.
dune exec bin/mcc.exe -- list --json > "$SCRATCH/list.json"
grep -q '"experiments":' "$SCRATCH/list.json"
grep -q '"groups":' "$SCRATCH/list.json"
