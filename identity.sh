#!/bin/sh
# Identity oracle for refactors: build BASE (any git revision) from
# `git archive` in a temporary directory, produce the canonical output
# set on BASE and on the working tree, and `cmp` every file.
#
#   ./identity.sh BASE          # e.g. ./identity.sh HEAD, ./identity.sh main~1
#
# The canonical set, all at --quick:
#   - `mcc run` over BASE's registry (`mcc list --json`) at --jobs 2:
#     JSONL, CSV and --metrics on the heap and on the wheel backend,
#     plus --series;
#   - the default 96-cell `mcc matrix` JSONL and scorecard;
#   - every workloads/*.json of BASE;
#   - `mcc trace --only fig1` and `--only fig7`.
# One filter drops the profile fields a run does not determine: host
# timing (wall_s, events_per_sec), per-domain allocation (minor_words)
# and scheduler storage (queue_capacity, sched_stats).  Entries and
# workload files that exist only in the working tree are listed as new
# and not compared.  Last, perfbench's seed-1 digests must match.
set -eu

BASE="${1:?usage: ./identity.sh BASE}"
ROOT="$(cd "$(dirname "$0")" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
MCC_LEDGER="$WORK/ledger"
export MCC_LEDGER

mkdir "$WORK/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$WORK/base"
(cd "$WORK/base" && dune build --root . ./bin/mcc.exe)
(cd "$ROOT" && dune build ./bin/mcc.exe)

names() {
  "$1/_build/default/bin/mcc.exe" list --json | python3 -c '
import json, sys
print("\n".join(e["name"] for e in json.load(sys.stdin)["experiments"]))'
}

names "$WORK/base" > "$WORK/base-names"
names "$ROOT" > "$WORK/head-names"
ONLY="$(paste -sd, "$WORK/base-names")"
NEW="$(grep -vxF -f "$WORK/base-names" "$WORK/head-names" || true)"
WORKLOADS="$(cd "$WORK/base" && ls workloads/*.json)"

# outputs TREE DIR: the canonical set of TREE, written under DIR.
outputs() {
  mkdir "$2"
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
  cd "$ROOT"
}

outputs "$WORK/base" "$WORK/out-base"
outputs "$ROOT" "$WORK/out-head"

# The shared filter: every dropped field follows another profile field,
# so each goes with its leading comma; sched_stats nests only lists.
scrub() {
  sed -E -e 's/,"(wall_s|events_per_sec|minor_words|queue_capacity)":[^,}]*//g' \
    -e 's/,"sched_stats":\{[^{}]*\}//g' "$1"
}

FAILED=0
for F in $(cd "$WORK/out-base" && ls); do
  if [ ! -s "$WORK/out-base/$F" ]; then
    echo "EMPTY    $F"
    FAILED=1
  fi
  scrub "$WORK/out-base/$F" > "$WORK/a"
  scrub "$WORK/out-head/$F" > "$WORK/b"
  if cmp -s "$WORK/a" "$WORK/b"; then
    echo "same     $F"
  else
    echo "DIFFERS  $F"
    FAILED=1
  fi
done
for N in $NEW; do echo "new      entry $N"; done
for W in $(cd "$ROOT" && ls workloads/*.json); do
  case " $(echo $WORKLOADS) " in
  *" $W "*) ;;
  *) echo "new      workload $W" ;;
  esac
done

for W in flid-sweep threshold-keys; do
  (cd "$ROOT" && python3 perfbench/run.py --workload "$W" --seed 1 \
    --seconds 3 --trace 0) | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r["correct"] is True and r["failed"] == 0
print(("same    " if ok else "DIFFERS ") + " perfbench " + sys.argv[1], r)
sys.exit(0 if ok else 1)' "$W" || FAILED=1
done

if [ "$FAILED" -ne 0 ]; then
  echo "identity: outputs differ from $BASE" >&2
  exit 1
fi
echo "identity: every output matches $BASE"
