#!/usr/bin/env bash
# check.sh — the full verification gate: vet, gofmt, build, race-enabled tests,
# and a short run of every fuzz target. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Fails on any Go file, bench/ included, that gofmt would rewrite.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# Includes the chase scaling regression tests of internal/datalog
# (TestChaseWorkIsLinearInDisjointGroups, TestDeltaPlans): exact candidate
# counts, no wall clock, so they hold under the race detector's slowdown.
# Also the query cache's soundness property
# (internal/reasonapi TestCacheSoundnessProperty): after every random commit,
# through a standalone and a follower-mode server, every cache hit equals a
# cache-disabled server's answer. The kill -9 harnesses and the ivm race
# harness are skipped here: each runs once, under -race, in its own stanza
# below.
go test -race -skip '^(TestCrashRecoveryLoop|TestReplicationCrashLoop|TestReplicationFailoverLoop|TestConcurrentReadsDuringApply)$' ./...

echo "== benchmark driver (bench/ is a nested module: none of the above sees it) =="
# The benchmark harness compiles against internal/* names, so a rename there
# silently breaks the driver until someone runs it. Build and vet it, then
# run its smoke test (all six workloads at a tenth of the size). The binary
# go build leaves in bench/ is ignored by the root .gitignore.
go build -C bench ./...
go vet -C bench ./...
go test -C bench ./...

echo "== coverage floors =="
# One row per package: its directory, the environment variable that
# overrides its floor, and the floor (statement coverage, percent). Why each
# is held:
#   datalog      the hottest and most-refactored code in the repo; held at the
#                level the indexing/parallelism PR established (87.3%; 91.3%
#                measured with slot-compiled bindings, 90.8% once the worker
#                pool went and the chase kept one round evaluator, 93.0% on
#                value rows) so later perf work can't silently shed tests. The
#                allocation guards, TestChaseAllocations (one full chase) and
#                TestGoalMissAllocations (one goal miss on the
#                extract-then-assert path the benchmark's replay still times;
#                a served miss streams a pruned load, guarded by vadalog's
#                TestEvalGoalAllocations), run here: the race step above
#                skips them.
#   vadalog      the program table every chase starts from, and the free
#                lists that recycle a goal plan's engine scratch across
#                misses. Proven by the recycling harness
#                (TestRecycledEnginesMatchFresh, also under -race above) and
#                held at its measured coverage (79.9%). The allocation guard,
#                TestEvalGoalAllocations (one C=2000 goal miss through
#                Control.Goal on a recycled engine: 105 allocations and
#                32 kB, budgets 119 and 36.5 kB; 152 and 0.70 MB on a fresh
#                one), runs here: the race step above skips it.
#                TestIdleScratchIsCollected (a burst of misses leaves no idle
#                engine live after one collection) runs in both.
#   reasonapi    the HTTP surface carries the error-envelope and observability
#                contracts, and the hit-path guards (allocations per hit, a
#                deadline armed only by misses, queryParam vs url.ParseQuery)
#                keep a cache hit cheap (91.5% measured once /v1/closelinks
#                and /v1/augment read the served baseline, floor raised to
#                91.5). The allocation guard, TestHitAllocations, runs here:
#                the race step above skips it.
#   persist      the durability layer is where silent regressions cost real
#                data (83.7%; 88.4% measured once snapshots became the
#                compacted replay log, floor raised to 88.0).
#   replication  the failure paths (reconnect, re-request, snapshot
#                re-bootstrap) only run when things go wrong; the floor keeps
#                fault coverage from eroding (85.8%).
#   pg           the graph every version, clone and overlay shares elements
#                of: copy-on-write weight edits, sharing clones, overlay
#                composition, typed property records, ID-indexed storage.
#                Held at its measured coverage (94.2%; 96.4% measured once
#                elements and adjacency moved from maps to slices by ID;
#                97.8% once Graph and Overlay shared one copy of the named
#                mutators and derived reads, floor raised to 97.8) rather
#                than the shared MVCC floor, since a write through a
#                shared element corrupts every version at once. The
#                allocation guards, TestCloneAllocations (13 allocations and
#                296 kB per clone of a generated registry, budgets 15 and
#                340 kB), TestGraphBytesPerElement (168 B retained per element
#                of one, budget 193) and TestPropertyReadsAllocateNothing
#                (Edge.Weight and the typed string and number reads), run
#                here: the race step above skips them.
#   store        the version chain every serving mode reads: commit/conflict.
#                Correctness is proven by the race harnesses; the floor keeps
#                that proof from eroding (83.5%; 95.5% measured once the gob
#                snapshot codec left the package, floor raised to 95.0).
#   whatif       the scoped step behind every what-if and every maintained
#                commit: the diff and the splice. Proven by the differential
#                harness and the allocation guards, TestAdvanceAllocations and
#                TestEvaluateCostIsIndependentOfRegistry, which run here: the
#                race step above skips them. Held at its measured coverage
#                (92.9% once a what-if stopped building a successor).
#   ivm          maintenance silently corrupting derived state is the worst
#                failure mode in the repo: reads keep succeeding with stale
#                answers. Keeps the invalidation/retraction paths exercised
#                (99.3% measured, floor 90.0).
#   qcache       sits in front of every point endpoint; a bug here serves stale
#                answers with a fresh-looking seq. Keeps the invalidation,
#                eviction and single-flight paths exercised (95.9% measured on
#                every run once a test parks a waiter on another caller's
#                computation deterministically, floor raised to 95.9).
#   embed        the hottest code of the augment workload: a tuned training
#                kernel whose shortcuts (sigmoid table, one-draw negatives,
#                walk arena) each have a unit test to keep (97.0%).
#   core         Algorithm 1's loop: fixpoint, round cap, recall and block
#                matching are the paths a regression hides in (89.3%).
#   relstore     the §3 relational image every chase loads: one walk of its
#                rows feeds both the facts and the streamed, column-pruned
#                load, and its rendering of properties is what the reasoning
#                programs match on (95.1% measured once Load and LoadScope
#                were tested against CompanyGraphFacts; 96.3% once the walk
#                went per source and was held to a label-scan reference,
#                floor raised to 96.3).
#   cmd/vadalink the CLI asks the reasoning API's handler in process, and its
#                tests pin that every routed subcommand prints the handler's
#                body unchanged; held at its measured coverage (43.4%), which
#                serve, untested in process, keeps low.
while read -r pkg var floor; do
    floor="${!var:-$floor}"
    profile="/tmp/${pkg##*/}.cover"
    # A failing test here would otherwise end the run under set -e with no
    # word of why: keep the output and print it under the package's name.
    if ! out="$(go test -coverprofile="$profile" "./${pkg}" 2>&1)"; then
        echo "${pkg}: tests failed in the coverage run:" >&2
        echo "$out" >&2
        exit 1
    fi
    cov="$(go tool cover -func="$profile" | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
    echo "${pkg} coverage: ${cov}% (floor ${floor}%)"
    awk -v c="$cov" -v f="$floor" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
        echo "${pkg} coverage ${cov}% fell below the ${floor}% floor" >&2
        exit 1
    }
done <<'FLOORS'
internal/datalog     COVER_FLOOR          87.3
internal/vadalog     VADALOG_COVER_FLOOR  79.9
internal/reasonapi   API_COVER_FLOOR      91.5
internal/persist     PERSIST_COVER_FLOOR  88.0
internal/replication REPL_COVER_FLOOR     80.0
internal/pg          PG_COVER_FLOOR       97.8
internal/store       MVCC_COVER_FLOOR     95.0
internal/whatif      WHATIF_COVER_FLOOR   92.9
internal/ivm         IVM_COVER_FLOOR      90.0
internal/qcache      QCACHE_COVER_FLOOR   95.9
internal/embed       EMBED_COVER_FLOOR    90.0
internal/core        CORE_COVER_FLOOR     85.0
internal/relstore    RELSTORE_COVER_FLOOR 96.3
cmd/vadalink         CLI_COVER_FLOOR      43.4
FLOORS

echo "== differential what-if harness =="
# 100+ randomized graphs: the scoped step over a scenario overlay == a chase
# of the shipped vadalog programs on the flattened overlay (close links formed
# by rules, not by witness counting), on control and closelink alike.
go test -run '^TestDifferentialWhatIf$' -v ./internal/whatif | grep -E 'PASS|FAIL|ok '

echo "== differential maintenance harness =="
# 100+ randomized mutation streams: the maintained baseline must equal a chase
# of the shipped vadalog programs at the seed and after every commit, on
# control and closelink alike; the concurrent case runs under -race because
# maintenance publishes new baselines while snapshot readers walk the old
# ones.
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

echo "== fuzz targets (${FUZZTIME} each) =="
# Discover every Fuzz* target and give each a short budget; a regression in
# input hardening shows up here before it ships.
for pkg in $(go list ./...); do
    for target in $(go test -list 'Fuzz.*' "$pkg" 2>/dev/null | grep '^Fuzz' || true); do
        echo "-- $pkg $target"
        go test -run=NONE -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg"
    done
done

# The size figure every change reports (ROADMAP.md): informational, no floor.
echo "non-test Go lines outside bench/: $(scripts/loc.sh)"

echo "== all checks passed =="
