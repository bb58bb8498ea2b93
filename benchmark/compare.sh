#!/usr/bin/env bash
# compare.sh <parent.json> <change.json>: one row per (workload, metric)
# under the bounds of the metric catalogue; exits non-zero on a regression
# or a higher failed share.
set -euo pipefail
exec "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/run.sh" compare "$@"
