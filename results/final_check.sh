#!/bin/bash
# Final verification pass: full workspace test suite with its output
# captured at the repository root (as recorded in test_output.txt).
# Timing lives in `airguard-bench --figure hotpath|scale` and `benchmark/`.
set -x
cd "$(dirname "$0")/.." || exit 1
cargo test --workspace 2>&1 | tee test_output.txt | tail -5
