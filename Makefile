GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fuzz check bench cover

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

cover:
	$(GO) test -coverprofile=cover.out ./internal/datalog
	$(GO) tool cover -func=cover.out | tail -1
