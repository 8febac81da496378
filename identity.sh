#!/bin/sh
# Identity oracle for refactors: build BASE (any git revision) from
# `git archive` in a temporary directory, produce the canonical output
# set (canonical.sh) on BASE and on the working tree, and `cmp` every
# file.
#
#   ./identity.sh BASE          # e.g. ./identity.sh HEAD, ./identity.sh main~1
#   ./identity.sh BASE --except series:NAME ...
#
# BASE's registry entries and workload files are compared; those that
# exist only in the working tree are listed as new and not compared.
# `--except series:NAME` (repeatable) drops the series NAME from both
# sides' series.jsonl before the cmp and prints it as exempt; every
# other file and series must still match.  It is for a change that
# reorders one series' records on purpose, and CHANGES.md says which.
#
# Then the working tree's set is produced once more under
# OCAMLRUNPARAM=R, which seeds every generic Hashtbl at random, and
# every file must match the normal pass with nothing exempt: no output
# may depend on hash-table order.  Last, perfbench's seed-1 digests
# must match.
set -eu

usage() {
  echo "usage: ./identity.sh BASE [--except series:NAME]..." >&2
  exit 2
}

BASE=""
SERIES_EXEMPT=""
while [ $# -gt 0 ]; do
  case "$1" in
  --except)
    [ $# -ge 2 ] || usage
    case "$2" in
    series:?*) SERIES_EXEMPT="$SERIES_EXEMPT ${2#series:}" ;;
    *) usage ;;
    esac
    shift 2
    ;;
  -*) usage ;;
  *)
    [ -z "$BASE" ] || usage
    BASE="$1"
    shift
    ;;
  esac
done
[ -n "$BASE" ] || usage

ROOT="$(cd "$(dirname "$0")" && pwd)"
. "$ROOT/canonical.sh"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
MCC_LEDGER="$WORK/ledger"
export MCC_LEDGER

mkdir "$WORK/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$WORK/base"
(cd "$WORK/base" && dune build --root . ./bin/mcc.exe)
(cd "$ROOT" && dune build ./bin/mcc.exe)

registry_names "$WORK/base/_build/default/bin/mcc.exe" > "$WORK/base-names"
registry_names "$ROOT/_build/default/bin/mcc.exe" > "$WORK/head-names"
ONLY="$(paste -sd, "$WORK/base-names")"
NEW="$(grep -vxF -f "$WORK/base-names" "$WORK/head-names" || true)"
WORKLOADS="$(cd "$WORK/base" && ls workloads/*.json)"

canonical_outputs "$WORK/base" "$WORK/out-base"
canonical_outputs "$ROOT" "$WORK/out-head"
(
  OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}R"
  export OCAMLRUNPARAM
  canonical_outputs "$ROOT" "$WORK/out-rand"
)

FAILED=0
compare_outputs "$WORK/out-base" "$WORK/out-head" ""
SERIES_EXEMPT=""
compare_outputs "$WORK/out-head" "$WORK/out-rand" "R: "
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
