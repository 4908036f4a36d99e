#!/usr/bin/env bash
# check.sh — the full verification gate: vet, build, race-enabled tests,
# and a short run of every fuzz target. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmark driver (bench/ is a nested module: none of the above sees it) =="
# The benchmark harness compiles against internal/* names, so a rename there
# silently breaks the driver until someone runs it. Build and vet it, then
# run its smoke test (all six workloads at a tenth of the size). The binary
# go build leaves in bench/ is ignored by the root .gitignore.
go build -C bench ./...
go vet -C bench ./...
go test -C bench ./...

echo "== coverage floor (internal/datalog) =="
# The engine is the hottest and most-refactored code in the repo; hold its
# statement coverage at the level the indexing/parallelism PR established
# (87.3% at the time) so later perf work can't silently shed tests.
COVER_FLOOR="${COVER_FLOOR:-86.0}"
go test -coverprofile=/tmp/datalog.cover ./internal/datalog >/dev/null
cov="$(go tool cover -func=/tmp/datalog.cover | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
echo "internal/datalog coverage: ${cov}% (floor ${COVER_FLOOR}%)"
awk -v c="$cov" -v f="$COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
    echo "coverage ${cov}% fell below the ${COVER_FLOOR}% floor" >&2
    exit 1
}

echo "== coverage floor (internal/reasonapi) =="
# The HTTP surface carries the error-envelope and observability contracts;
# hold it at the level the observability PR established (86% at the time).
API_COVER_FLOOR="${API_COVER_FLOOR:-75.0}"
go test -coverprofile=/tmp/reasonapi.cover ./internal/reasonapi >/dev/null
apicov="$(go tool cover -func=/tmp/reasonapi.cover | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
echo "internal/reasonapi coverage: ${apicov}% (floor ${API_COVER_FLOOR}%)"
awk -v c="$apicov" -v f="$API_COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
    echo "coverage ${apicov}% fell below the ${API_COVER_FLOOR}% floor" >&2
    exit 1
}

echo "== coverage floor (internal/persist) =="
# The durability layer is where silent regressions cost real data; hold it
# at the level the persistence PR established (83.7% at the time).
PERSIST_COVER_FLOOR="${PERSIST_COVER_FLOOR:-80.0}"
go test -coverprofile=/tmp/persist.cover ./internal/persist >/dev/null
pcov="$(go tool cover -func=/tmp/persist.cover | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
echo "internal/persist coverage: ${pcov}% (floor ${PERSIST_COVER_FLOOR}%)"
awk -v c="$pcov" -v f="$PERSIST_COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
    echo "coverage ${pcov}% fell below the ${PERSIST_COVER_FLOOR}% floor" >&2
    exit 1
}

echo "== coverage floor (internal/replication) =="
# The replication protocol's failure paths (reconnect, re-request, snapshot
# re-bootstrap) are exactly the code that only runs when things go wrong;
# hold the floor so fault coverage can't erode (85.8% when established).
REPL_COVER_FLOOR="${REPL_COVER_FLOOR:-80.0}"
go test -coverprofile=/tmp/replication.cover ./internal/replication >/dev/null
rcov="$(go tool cover -func=/tmp/replication.cover | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
echo "internal/replication coverage: ${rcov}% (floor ${REPL_COVER_FLOOR}%)"
awk -v c="$rcov" -v f="$REPL_COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
    echo "coverage ${rcov}% fell below the ${REPL_COVER_FLOOR}% floor" >&2
    exit 1
}

echo "== coverage floor (internal/pg + internal/store + internal/whatif) =="
# The MVCC substrate: overlay composition, version-chain commit/conflict, and
# the scoped what-if evaluation. Correctness here is proven by the
# differential and race harnesses; the floors keep that proof from eroding
# (92.6 / 83.5 / 90.2 when established).
MVCC_COVER_FLOOR="${MVCC_COVER_FLOOR:-80.0}"
for pkg in pg store whatif; do
    go test -coverprofile="/tmp/${pkg}.cover" "./internal/${pkg}" >/dev/null
    mcov="$(go tool cover -func="/tmp/${pkg}.cover" | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
    echo "internal/${pkg} coverage: ${mcov}% (floor ${MVCC_COVER_FLOOR}%)"
    awk -v c="$mcov" -v f="$MVCC_COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
        echo "internal/${pkg} coverage ${mcov}% fell below the ${MVCC_COVER_FLOOR}% floor" >&2
        exit 1
    }
done

echo "== coverage floor (internal/ivm) =="
# Incremental view maintenance silently corrupting derived state is the worst
# failure mode in the repo: reads keep succeeding with stale answers. Hold the
# floor so the invalidation/retraction paths stay exercised (90.0% when
# established).
IVM_COVER_FLOOR="${IVM_COVER_FLOOR:-80.0}"
go test -coverprofile=/tmp/ivm.cover ./internal/ivm >/dev/null
icov="$(go tool cover -func=/tmp/ivm.cover | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
echo "internal/ivm coverage: ${icov}% (floor ${IVM_COVER_FLOOR}%)"
awk -v c="$icov" -v f="$IVM_COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
    echo "coverage ${icov}% fell below the ${IVM_COVER_FLOOR}% floor" >&2
    exit 1
}

echo "== coverage floor (internal/qcache) =="
# The query-result cache sits in front of every point endpoint; a bug here
# serves stale answers with a fresh-looking seq. Hold the floor so the
# invalidation, eviction, and single-flight paths stay exercised (91.4% when
# established).
QCACHE_COVER_FLOOR="${QCACHE_COVER_FLOOR:-80.0}"
go test -coverprofile=/tmp/qcache.cover ./internal/qcache >/dev/null
qcov="$(go tool cover -func=/tmp/qcache.cover | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
echo "internal/qcache coverage: ${qcov}% (floor ${QCACHE_COVER_FLOOR}%)"
awk -v c="$qcov" -v f="$QCACHE_COVER_FLOOR" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
    echo "coverage ${qcov}% fell below the ${QCACHE_COVER_FLOOR}% floor" >&2
    exit 1
}

echo "== differential what-if harness =="
# 100+ randomized graphs: scoped overlay evaluation == unscoped == the
# flatten-and-re-chase oracle, on control and closelink alike.
go test -run '^TestDifferentialWhatIf$' -v ./internal/whatif | grep -E 'PASS|FAIL|ok '

echo "== differential maintenance harness =="
# 100+ randomized mutation streams: the mutation-driven differential chase
# must equal the full re-chase after every commit, on control and closelink
# alike; the concurrent case runs under -race because maintenance publishes
# new baselines while snapshot readers walk the old ones.
go test -run '^TestDifferentialMaintenance$' -v ./internal/ivm | grep -E 'cases|PASS|FAIL|ok '
go test -race -run '^TestConcurrentReadsDuringApply$' -v ./internal/ivm | grep -E 'PASS|FAIL|ok '

echo "== crash-recovery harness (kill -9 loop) =="
# 20 consecutive SIGKILLs mid-write; every acknowledged fact must survive and
# every restart must load a consistent store. Runs under -race on purpose:
# the WAL's group-commit loop is concurrent with appends.
go test -race -run '^TestCrashRecoveryLoop$' -v ./internal/persist | grep -E 'survived|PASS|FAIL'

echo "== replication crash harness (leader + 2 followers, kill -9 loop) =="
# 20 cycles of interleaved SIGKILLs across a leader and two followers; every
# fact the leader acknowledged must survive on the leader AND converge on
# both followers. Under -race: frame apply races against API-style reads.
go test -race -run '^TestReplicationCrashLoop$' -v ./internal/replication | grep -E 'kills|converged|PASS|FAIL'

echo "== leader-kill failover harness (3-node replica group, kill -9 loop) =="
# 20 cycles of SIGKILLing whichever member currently leads a 3-node
# self-healing group. The survivors must elect a new leader, every
# acknowledged fact must survive onto the final leader, no two epochs may
# acknowledge the same sequence number with different facts, and writes
# must come back within the failover bound. Under -race: the role state
# machine runs concurrently with streaming, elections and commits.
go test -race -run '^TestReplicationFailoverLoop$' -v ./internal/replication | grep -E 'survived|outage|PASS|FAIL'

echo "== benchmark smoke (1x) =="
# Run every regression benchmark once so the harness can't bit-rot; real
# measurements go through scripts/bench.sh with a time-based BENCHTIME.
BENCH_OUT="${BENCH_OUT:-/tmp}" ./scripts/bench.sh

echo "== fuzz targets (${FUZZTIME} each) =="
# Discover every Fuzz* target and give each a short budget; a regression in
# input hardening shows up here before it ships.
for pkg in $(go list ./...); do
    for target in $(go test -list 'Fuzz.*' "$pkg" 2>/dev/null | grep '^Fuzz' || true); do
        echo "-- $pkg $target"
        go test -run=NONE -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg"
    done
done

echo "== all checks passed =="
