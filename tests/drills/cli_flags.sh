#!/usr/bin/env sh
# CLI flag drill: every case below must exit with status exactly 2 and
# print the usage text. `! coachlm ...` is not enough: it also passes when
# the binary crashes (134/139), so each status is compared to 2.
#
#   tests/drills/cli_flags.sh path/to/coachlm
#
# Registered with ctest under the `drill` label (ctest -L drill); the
# sanitizer CI job runs it too, so the hostile-input cases run under
# ASan/UBSan.
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

failed=0
expect_usage_error() {
  status=0
  "$coachlm" "$@" > out.log 2> err.log || status=$?
  if [ "$status" -ne 2 ] || ! grep -q '^usage: coachlm' err.log; then
    echo "cli_flags: FAIL: coachlm $* exited $status, want 2 + usage" >&2
    cat err.log >&2
    failed=1
  fi
}

# Bad corpus flags.
expect_usage_error convert --in corpus.jsonl --out x.json --format banana
expect_usage_error convert --in corpus.jsonl --out x.json --shards 0
expect_usage_error revise --corpus-manifest not-a-manifest.json --out x.json

# Hostile numeric / spec input.
expect_usage_error pipeline --threads 0 --size 100
expect_usage_error pipeline --retry-max banana --size 100
expect_usage_error pipeline --fault-plan sites=nosuchsite --size 100
expect_usage_error pipeline --deadline-ms -5 --size 100
expect_usage_error generate --size 99999999999999999999
expect_usage_error generate --size 9223372036854775807
expect_usage_error generate --size 1048577
expect_usage_error study --sample 1048577
expect_usage_error generate --deadline-ms 9223372036854775807

# Bad serving flags, and batch flags the daemon does not take.
expect_usage_error serve --checkpoint coach.json --port 0
expect_usage_error serve --checkpoint coach.json --port 70000
expect_usage_error serve --checkpoint coach.json --serve-workers 0
expect_usage_error serve --checkpoint coach.json --queue-depth banana
expect_usage_error serve --checkpoint coach.json --request-deadline-ms -5
expect_usage_error serve --checkpoint coach.json --resume
expect_usage_error serve --checkpoint coach.json --deadline-ms 1000

# Typed values: range, enum and number checks.
expect_usage_error revise --alpha abc
expect_usage_error revise --alpha -3
expect_usage_error train --alpha 7
expect_usage_error revise --backbone nonsense
expect_usage_error evaluate --testset bogus

# A flag the command does not take.
expect_usage_error generate --port 9
expect_usage_error convert --threads 3
expect_usage_error pipeline --verify
expect_usage_error serve --size 5 --threads 3
expect_usage_error revise --rule-engine scan

# Switches take no value; positionals are never accepted.
expect_usage_error rate --in c.json --resume extra.json
expect_usage_error revise --in c.json --resume extra.json
expect_usage_error revise --verify=yes
expect_usage_error rate c.json

# An unknown command.
expect_usage_error frobnicate

# No arguments at all print the usage and succeed.
"$coachlm" 2> err.log
grep -q '^usage: coachlm' err.log

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "cli_flags: OK"
