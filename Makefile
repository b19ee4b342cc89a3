# Build/test entry points. `make ci` is the full gate: vet, build, tests
# (at GOMAXPROCS=1 and at the host's width), a race pass over the
# packages with cross-goroutine state (the host runtime's worker pool,
# sharded transfers, and async command queue, the trace profile, the
# metrics registry, the execution engine, the
# softfloat slice kernels and compiled ISA dispatch shared across
# concurrently launched DPUs, and the gemm/ebnn/yolo and alexnet/resnet
# runners that drive parallel and pipelined launches, including the
# fault-injection recovery paths, plus the upmem-top renderer and the
# upmem-serve batching/backpressure server), and
# a check that this PR's benchmark trajectory record exists (see
# DESIGN.md, "Simulator performance"). bench.sh additionally fails the
# record step if any hot-path benchmark's allocs/op grew over the
# baseline.

GO ?= go

# The perf trajectory record this PR must ship (regenerate: make bench).
BENCH_RECORD ?= BENCH_pr10.json

.PHONY: all build vet test race bench bench-record profile profile-array ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Two legs: the worker pool, PipelineAuto and every sharded path change
# shape with the core count, so a suite that is green on one host width
# says nothing about the other. -count=1 on the pinned leg because the
# test cache does not key on GOMAXPROCS.
test:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	$(GO) test ./...

race:
	$(GO) test -race ./internal/dpu ./internal/softfloat ./internal/isa ./internal/host ./internal/trace ./internal/metrics ./internal/exec ./internal/gemm ./internal/ebnn ./internal/yolo ./internal/alexnet ./internal/resnet ./internal/plan ./cmd/upmem-top ./cmd/upmem-serve

# Regenerate $(BENCH_RECORD) and diff it against the previous PR's
# record (see DESIGN.md, "Simulator performance").
bench:
	scripts/bench.sh

bench-record:
	@test -f $(BENCH_RECORD) || { echo "FAIL: $(BENCH_RECORD) missing — run 'make bench' and commit it"; exit 1; }

# CPU-profile the simulator hot path and print the top cumulative
# functions (cpu.prof is left behind for `go tool pprof -http`).
profile:
	$(GO) test -run xxx -bench BenchmarkSimulatorWallClock -benchtime 500x -cpuprofile cpu.prof .
	$(GO) tool pprof -top -cum -nodecount=10 pimdnn.test cpu.prof

# The same for the steady-state full-array batch forward (one image per
# DPU on all 2,560): the profile behind the array_yolo workload.
profile-array:
	$(GO) test -run xxx -bench 'BenchmarkFullArrayYOLOForward$$' -benchtime 4x -cpuprofile cpu.prof .
	$(GO) tool pprof -top -cum -nodecount=25 pimdnn.test cpu.prof

ci: vet build test race bench-record
