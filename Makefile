GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fuzz check bench bench-json cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fuzz:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

# The full gate CI runs: vet + build + race tests + the bench/ module's
# build, vet and smoke test + short fuzz.
check:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Regression benchmarks over the graphgen size ladder, emitting BENCH_<n>.json.
bench-json:
	./scripts/bench.sh

cover:
	$(GO) test -coverprofile=cover.out ./internal/datalog
	$(GO) tool cover -func=cover.out | tail -1
