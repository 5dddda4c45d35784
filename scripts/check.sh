#!/bin/sh
# Full pre-merge gate: static checks, build, tests with the race
# detector, and a smoke run of the headline benchmark (experiment E1a)
# so hot-path regressions that only manifest under the benchmark replay
# harness are caught too. Run from the repository root, or via
# `make check`.
set -eu

cd "$(dirname "$0")/.."

echo '>> go vet ./...'
go vet ./...

echo '>> go build ./...'
go build ./...

echo '>> go test -race ./...'
go test -race ./...

# bench/ is a nested module importing cobcast/internal/...: the root
# ./... patterns above never compile it, so a runtime refactor could
# break the end-to-end benchmark's build unnoticed.
echo '>> bench module: go vet + short tests'
go -C bench vet ./...
go -C bench test -short ./...

echo '>> benchmark smoke (BenchmarkFig8Tco, 100 iterations)'
go test . -run '^$' -bench 'BenchmarkFig8Tco' -benchtime=100x -benchmem

# The root benchmarks that drive RRL → PRL → commit queue and the send
# log on entities that live across iterations, the second with the
# total-order release stage behind the commit queue.
echo '>> benchmark smoke (BenchmarkHotPathPipeline and BenchmarkHotPathPipelineTotalOrder, 20 iterations)'
go test . -run '^$' -bench '^BenchmarkHotPathPipeline(TotalOrder)?$' -benchtime=20x -benchmem

# go test accepts only one -fuzz pattern per invocation, hence the loop.
echo '>> fuzz smoke (1s per target)'
for target in FuzzUnmarshal FuzzFrameDecode FuzzCompare FuzzDTUnmarshal FuzzRETUnmarshal FuzzV2Unmarshal FuzzV2StreamRoundTrip; do
	go test ./internal/pdu -run '^$' -fuzz "^${target}\$" -fuzztime 1s
done
for target in FuzzReceiveWire FuzzReceiveCrafted; do
	go test ./internal/core -run '^$' -fuzz "^${target}\$" -fuzztime 1s
done

echo '>> chaos sweep smoke (60 seeds)'
go run ./cmd/cochaos -sweep 60 -par 4

echo '>> chaos sweep smoke under wire codec v2 (60 seeds)'
go run ./cmd/cochaos -sweep 60 -par 4 -codec 2

# The offline checker on what a replay writes: seed 9 runs three
# total-order groups, so cotrace check splits the dump by group and
# checks all four Section 2.2 predicates on each.
echo '>> cotrace check on a chaos replay dump (seed 9)'
dump=$(mktemp)
trap 'rm -f "$dump"' EXIT
go run ./cmd/cochaos -seed 9 -trace "$dump" >/dev/null
go run ./cmd/cotrace check -total "$dump"

# Opt-in perf gate: rerun the benchmarks bench_pins.json pins and fail
# on a median >10% (or the row's own spread) over its pin, or any
# allocs/op growth. Off by default because ns/op needs a quiet machine
# to mean anything.
if [ "${BENCHDIFF:-0}" = 1 ]; then
	echo '>> benchdiff against bench_pins.json'
	make benchdiff
fi

echo '>> all checks passed'
