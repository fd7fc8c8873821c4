GO ?= go

.PHONY: build test check vet race lint bench bench-smoke bench-scan bench-serve serve fmt fuzz-smoke cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint fails on vet findings or unformatted files (gofmt prints the
# offenders; the shell guard turns any output into a non-zero exit).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzz-smoke mines the batch-pipeline, cache-equivalence,
# scan-equivalence, SWAR-kernel and mapped-layout fuzz targets
# briefly — enough to shake out fresh regressions without
# stalling the gate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzQueryBatch$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEquivalence$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzScanEquivalence$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSWAREquivalence$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMappedEquivalence$$' -fuzztime 10s ./internal/core

# cover runs the suite shuffled (ordering bugs surface) with a coverage
# profile and prints the per-function summary tail.
cover:
	$(GO) test -shuffle=on -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -20

# check is the pre-merge gate: lint plus the race-enabled test suite
# (covers the concurrent telemetry, trace and server paths) plus a
# short fuzz smoke of the batch query pipeline.
check: lint race fuzz-smoke

fmt:
	gofmt -l -w .

bench:
	$(GO) run ./cmd/spinebench -exp all -divide 100

# bench-smoke runs every workload of the BENCHMARK.json suite at 1/20
# scale (under 20 s), every answer oracle-checked; the program exits
# non-zero when any workload is not correct.
bench-smoke:
	$(GO) run ./benchmark -smoke

# bench-scan is the quick check for occurrence-scan changes: the
# in-tree microbenchmark of the regimes the suite's `scan` workload
# measures (eco corpus, both layouts, |P| 8/12/32), five samples each.
bench-scan:
	$(GO) test -run '^$$' -bench OccurrenceScan -benchtime 20x -count 5 ./internal/core

# bench-serve is the quick check for serving-path changes: one query
# request (contains/find/count/findall) through the full middleware and
# handler stack into an httptest recorder, with allocations per request.
# The suite's `lookup` workload is the end-to-end number it predicts.
bench-serve:
	$(GO) test -run '^$$' -bench ServeQuery -benchmem -count 5 ./cmd/spineserve

serve:
	$(GO) run ./cmd/spineserve -synthetic eco -divide 10 -addr :8080
