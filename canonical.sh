# The canonical output set, shared by identity.sh and ci.sh (source it).
#
# The set, all at --quick:
#   - `mcc run` over the registry names in $ONLY (comma-separated) at
#     --jobs 2: JSONL, CSV and --metrics on the heap and on the wheel
#     backend, plus --series;
#   - the default 96-cell `mcc matrix` JSONL and scorecard;
#   - every workload file named in $WORKLOADS (paths relative to TREE);
#   - `mcc trace --only fig1` and `--only fig7`;
#   - `mcc profile matrix-inflate-flid-delta+sigma --json`, every member
#     but `prof`, which holds host self times (the Markdown rendering
#     holds wall times too and is not compared).

# registry_names MCC: the registry's entry names, one a line.
registry_names() {
  "$1" list --json | python3 -c '
import json, sys
print("\n".join(e["name"] for e in json.load(sys.stdin)["experiments"]))'
}

# canonical_outputs TREE DIR: the canonical set of TREE's build, written
# under DIR.
canonical_outputs() {
  mkdir "$2"
  (
    cd "$1"
    mcc="$1/_build/default/bin/mcc.exe"
    for S in heap wheel; do
      "$mcc" run --only "$ONLY" --quick --jobs 2 --sched "$S" --quiet \
        --no-progress --json "$2/run-$S.jsonl" --csv "$2/run-$S.csv" \
        --metrics="$2/metrics-$S.jsonl"
    done
    "$mcc" run --only "$ONLY" --quick --jobs 2 --quiet --no-progress \
      --series="$2/series.jsonl"
    "$mcc" matrix --quick --jobs 2 --quiet --no-progress \
      --json "$2/matrix.jsonl" --out "$2/scorecard.md"
    for W in $WORKLOADS; do
      "$mcc" workload run "$W" --quick --jobs 2 --quiet --no-progress \
        --json "$2/workload-$(basename "$W" .json).jsonl"
    done
    for F in fig1 fig7; do
      "$mcc" trace --only "$F" --quick --out "$2/trace-$F.jsonl"
    done
    "$mcc" profile matrix-inflate-flid-delta+sigma --quick -o /dev/null \
      --json "$2.profile.json"
    python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
del doc["prof"]
print(json.dumps(doc, separators=(",", ":")))' "$2.profile.json" \
      > "$2/profile.json"
  )
}

# scrub FILE: FILE without the profile fields a run does not determine:
# host timing (wall_s, events_per_sec), per-domain allocation
# (minor_words) and scheduler storage (queue_capacity, sched_stats).
# Every dropped field follows another profile field, so each goes with
# its leading comma; sched_stats nests only lists.
scrub() {
  sed -E -e 's/,"(wall_s|events_per_sec|minor_words|queue_capacity)":[^,}]*//g' \
    -e 's/,"sched_stats":\{[^{}]*\}//g' "$1"
}

# compare_outputs A B LABEL: `cmp` every file of directory A, scrubbed,
# against the same file of B; prints one line a file and sets FAILED=1
# on an empty or differing file.  The series named in $SERIES_EXEMPT
# (space-separated) are dropped from both sides' series.jsonl first.
compare_outputs() {
  for F in $(cd "$1" && ls); do
    if [ ! -s "$1/$F" ]; then
      echo "EMPTY    $3$F"
      FAILED=1
    fi
    scrub "$1/$F" > "$1.a"
    scrub "$2/$F" > "$1.b"
    if [ "$F" = series.jsonl ] && [ -n "${SERIES_EXEMPT:-}" ]; then
      for X in "$1.a" "$1.b"; do
        python3 -c '
import json, sys
path, names = sys.argv[1], sys.argv[2:]
with open(path) as f:
    rows = [json.loads(line) for line in f if line.strip()]
with open(path, "w") as f:
    for row in rows:
        for name in names:
            row["series"].pop(name, None)
        f.write(json.dumps(row, separators=(",", ":")) + "\n")' \
          "$X" $SERIES_EXEMPT
      done
      for N in $SERIES_EXEMPT; do echo "exempt   $3$F: $N"; done
    fi
    if cmp -s "$1.a" "$1.b"; then
      echo "same     $3$F"
    else
      echo "DIFFERS  $3$F"
      FAILED=1
    fi
  done
  rm -f "$1.a" "$1.b"
}
