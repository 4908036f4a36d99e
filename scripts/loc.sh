#!/usr/bin/env bash
# loc.sh — prints the number of non-test Go lines outside bench/, the size
# figure every change reports before and after (ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l | tr -d ' '
