#!/usr/bin/env bash
# Runs every workload untraced, one process each, and prints its metrics.
#   bash bench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in grid memory control; do
    python3 bench/run.py --workload "$workload" --seed "${1:-0}" \
        --seconds "${2:-42}" --trace "${3:-0}"
done
