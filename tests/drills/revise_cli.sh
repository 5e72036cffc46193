#!/usr/bin/env sh
# CLI revise drill: trains a small coach checkpoint in a temp dir, then
#   1. `revise --rule-engine scan` is rejected as an unknown flag (exit 2):
#      the compiled matcher is the only rule engine;
#   2. `revise --threads 1` and `--threads 8` write byte-identical output.
#
#   tests/drills/revise_cli.sh path/to/coachlm
#
# Registered with ctest under the `drill` label (ctest -L drill).
set -eu

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 path/to/coachlm" >&2
  exit 2
fi
coachlm="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
trap 'exit 1' INT TERM
cd "$work"

"$coachlm" generate --size 2000 --seed 42 --threads 1 \
  --out corpus.jsonl --format jsonl > /dev/null
"$coachlm" study --in corpus.jsonl --sample 400 \
  --out revisions.jsonl > /dev/null
"$coachlm" train --revisions revisions.jsonl --alpha 0.3 \
  --checkpoint coach.json > /dev/null

status=0
"$coachlm" revise --in corpus.jsonl --checkpoint coach.json \
  --rule-engine scan --out scan.json > /dev/null 2> reject.log || status=$?
if [ "$status" -ne 2 ]; then
  echo "revise_cli: --rule-engine scan exited $status, want 2" >&2
  cat reject.log >&2
  exit 1
fi
test ! -e scan.json

for t in 1 8; do
  "$coachlm" revise --in corpus.jsonl --checkpoint coach.json \
    --out "revised_t$t.json" --threads "$t" > /dev/null
done
cmp revised_t1.json revised_t8.json
echo "revise_cli: OK"
