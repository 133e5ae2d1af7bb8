#!/bin/sh
# The CI gate: .github/workflows/ci.yml runs this script, and it runs
# locally as it is, so the step list lives here only.
# Fails on unformatted files, vet findings, build or test failures, data
# races in the concurrent packages (GCLP propose workers, parallel NCuts /
# recursive bisection, k-way refinement, parallel nested dissection), a
# failing benchmark, and fuzz findings. Performance gates are the
# deterministic pinned tests (golden cuts, allocation bounds) inside go
# test; timing is perfbench's job.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (concurrent packages, parity + fuzz seeds)"
go test -race ./internal/coarsen/ ./internal/multilevel/ ./internal/kway/ \
    ./internal/trace/ ./internal/graph/ ./internal/service/ ./internal/jobs/ \
    ./internal/sessions/ ./internal/workspace/ ./internal/refine/ \
    ./internal/ordering/

echo "== chaos (fault-injection suite under -race, multiple seeds)"
for seed in 1 7 42; do
    echo "-- CHAOS_SEED=$seed"
    CHAOS_SEED=$seed go test -race -run 'Chaos' -count=1 \
        ./internal/service/ ./internal/multilevel/ ./internal/sessions/ \
        ./internal/ordering/
done

echo "== service smoke (live daemon vs CLI, async batch jobs, healthz, readyz drain, cache, SIGTERM, session kill-and-recover)"
go run ./scripts/servicesmoke

echo "== perfbench (own module, so root go test ./... never compiles it)"
(cd perfbench && go vet . && go test .)

echo "== benchmark smoke (every benchmark once; fails if any of them fails)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== fuzz smoke (graph readers + binary + Validate, matching and cluster contraction, JSON and query request decoders + session delta log and snapshot reuse + BKWAY connectivity + projection + Repartition + the workspace arena against its model)"
go test -fuzz '^FuzzRead$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/graph/
go test -fuzz '^FuzzReadMatrixMarket$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/graph/
go test -fuzz '^FuzzDecodeBinary$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/graph/
go test -fuzz '^FuzzValidate$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/graph/
go test -fuzz '^FuzzContract$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/coarsen/
go test -fuzz '^FuzzContractClusters$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/coarsen/
go test -fuzz '^FuzzDecodeJSONRequest$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/service/
go test -fuzz '^FuzzQueryDecode$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/service/
go test -fuzz '^FuzzDeltaLog$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/sessions/
go test -fuzz '^FuzzSnapshotReuse$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/sessions/
go test -fuzz '^FuzzRefineKWayConnectivity$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/refine/
go test -fuzz '^FuzzProject$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/refine/
go test -fuzz '^FuzzRepartition$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' .
go test -fuzz '^FuzzWorkspace$' -fuzztime 10s -fuzzminimizetime 100x -run '^$' ./internal/workspace/

echo "CI OK"
