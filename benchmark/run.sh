#!/usr/bin/env bash
# One command for the whole benchmark: every workload (each in its own
# process), then the per-layer drivers. Report lines are appended to
# benchmark/out/results.jsonl, which `compare` and `gate` read.
#
#   benchmark/run.sh [--quick] [--seed N] [--trace]
#
# --quick uses 2 s phases and 2 set-up repetitions: a smoke run, not a
# measurement. --trace runs the traced variant (spans + per-layer metrics).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
extra=()
layers=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) extra+=(--quick); layers+=(--quick) ;;
    --trace) extra+=(--trace 1) ;;
    --seed) seed="$2"; shift ;;
    *) echo "usage: $0 [--quick] [--seed N] [--trace]" >&2; exit 2 ;;
  esac
  shift
done

mkdir -p "$here/out"
bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
"${bench[@]}" run --workload all --seed "$seed" ${extra[@]+"${extra[@]}"} | tee -a "$here/out/results.jsonl"
"${bench[@]}" layers ${layers[@]+"${layers[@]}"} | tee -a "$here/out/results.jsonl"
