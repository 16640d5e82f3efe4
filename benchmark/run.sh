#!/usr/bin/env bash
# Run every workload at its documented size (5 repeats after one warm-up),
# check the outputs, and print the end-to-end metrics by name.
#
#   benchmark/run.sh                    # run --seed 2006 --scale full
#   benchmark/run.sh --scale smoke      # pre-flight, < 15 s
#   benchmark/run.sh trace              # the separate traced run
#   benchmark/run.sh agree              # two sets, compared against the bounds
#
# A first argument of run/trace/agree/manifest selects the mode; anything
# else is passed to `run`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mode=run
case "${1:-}" in
  run|trace|agree|manifest) mode="$1"; shift ;;
esac
args=("$mode")
if [ "$mode" != manifest ]; then
  args+=(--seed 2006)
fi
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "${args[@]}" "$@"
