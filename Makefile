GO ?= go

# The root-package benchmarks bench_pins.json pins; benchdiff reruns
# exactly these, plus SnapshotInto (internal/core) and Record
# (internal/flight).
BENCHDIFF_PATTERN = HotPath|Fig8Tco|FrameCodec

.PHONY: check vet build test race bench benchdiff

## check: the full pre-merge gate (vet + build + race tests + bench smoke)
check:
	./scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: every table and figure of the paper's evaluation (the
## end-to-end runtime benchmark is `bash bench/run.sh`)
bench:
	$(GO) run ./cmd/cobench

## benchdiff: opt-in perf gate — rerun the pinned hot-path benchmarks
## five times and diff their medians against bench_pins.json; a median
## more than 10% (or the row's own run-to-run spread, if wider) over
## its pin, or any allocs/op growth, fails. Also reachable via
## BENCHDIFF=1 make check.
benchdiff:
	@tmp=$$(mktemp); trap "rm -f $$tmp" EXIT; \
	$(GO) test . -timeout 60m -run '^$$' -bench '$(BENCHDIFF_PATTERN)' -benchtime 0.5s -benchmem -count 5 > $$tmp && \
	$(GO) test ./internal/core -run '^$$' -bench 'SnapshotInto' -benchtime 0.5s -benchmem -count 5 >> $$tmp && \
	$(GO) test ./internal/flight -run '^$$' -bench 'Record' -benchtime 0.5s -benchmem -count 5 >> $$tmp && \
	$(GO) run ./scripts/benchdiff -input $$tmp
