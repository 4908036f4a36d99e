GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The full gate CI runs: vet + gofmt + build + race tests + the bench/ module's
# build, vet and smoke test + short fuzz.
check:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

