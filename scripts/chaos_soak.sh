#!/usr/bin/env bash
# Chaos soak: seeded partition/heal runs over the reliability layer.
#
# Drives the same cut -> traffic -> heal cycle as bench experiment E11
# plus the partition, soak and overload integration tests, all derived
# from one base seed so failures replay deterministically:
#
#   DOCT_SEED=123 scripts/chaos_soak.sh
#
# DOCT_LOCKDEP=1 additionally builds with the parking_lot/lockdep
# feature: runtime lock-order + blocking-point validation runs under the
# soak, and tests/lock_order.rs turns any cycle into a failure.
#
# The E11 partition suite runs once per transport backend (DOCT_FABRIC=
# sim, then udp — real loopback sockets; KernelConfig::effective_fabric
# reads the variable in-process), and a real kill -9 leg
# (scripts/udp_smoke.sh) asserts the heartbeat detector marks a killed
# node process Dead with the delivery ledger balanced.
#
# Exits non-zero if any ledger fails to balance, a waiter hangs past its
# deadline, or a test fails.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${DOCT_SEED:-3503345325}"
FEATURES=()
if [[ "${DOCT_LOCKDEP:-0}" == "1" ]]; then
  FEATURES=(--features parking_lot/lockdep)
  echo "=== lockdep enabled ==="
fi
echo "=== chaos soak, DOCT_SEED=${SEED} ==="

echo "--- partition + soak + overload integration tests ---"
DOCT_SEED="${SEED}" cargo test --release "${FEATURES[@]}" \
  --test partition --test soak --test overload --test lock_order -- --nocapture

for fabric in sim udp; do
  echo "--- E11 partition & heal, DOCT_FABRIC=${fabric} (with telemetry) ---"
  DOCT_SEED="${SEED}" DOCT_FABRIC="${fabric}" \
    cargo run --release "${FEATURES[@]}" -p doct-bench --bin experiments -- e11
done

echo "--- multi-process kill -9 round (real UDP sockets) ---"
scripts/udp_smoke.sh

echo "=== chaos soak passed (seed ${SEED}) ==="
