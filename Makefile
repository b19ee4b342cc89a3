# Build/test entry points. `make ci` is the full gate: vet, build, tests
# (at GOMAXPROCS=1 and at the host's width), a race pass over the
# packages with cross-goroutine state (the host runtime's worker pool
# and sharded transfers, the trace profile, the metrics registry, the
# execution engine, the softfloat slice kernels
# and isa.Kernel closures shared across concurrently launched DPUs, the
# gemm/ebnn runners and the nn executor — whose batch fill/decode and
# eBNN classify callbacks run on pool workers — with the three networks
# over it, including the fault-injection recovery paths, plus the
# upmem-top renderer, the upmem-serve batching/backpressure server and
# upmem-profile; and internal/tensor, whose little-endian views
# -race's checkptr instrumentation checks), one iteration of each benchmark a `make profile*`
# target names (`make bench-smoke`), ~10 s of each fuzz target (`make
# fuzz`), the simulated-clock core-count
# check (`make sim-invariant`), the report and examples byte-identity check (`make report-check`),
# the portable build (`make portable`: the packages under the gemm
# kernel and ebnn tested as GOARCH=386, where gemm's MAC and ebnn's
# classifier are the Go loops, the tree cross-built for arm64, and
# tensor and gemm vetted big-endian),
# the funcs under internal/ that no shipped program links and
# scripts/reach.allow does not list (`make reach`), and the non-test line
# count per package (`make lines`), the number ROADMAP asks every PR to
# report, which fails when test lines outgrow non-test lines. Each paper number has one reproduction,
# cmd/experiments (pinned by report-check); each wall-clock number has
# one harness, `go run ./bench` (`make bench`).

GO ?= go

.PHONY: all build vet test race portable bench-smoke fuzz sim-invariant report-check report-update bench lines reach profile profile-array profile-ebnn profile-rows profile-serve ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Two legs: the core count changes the worker pool's fan-out (never
# span names, transfer accounting or any simulated clock), so a suite
# that is green on one host width says nothing about the other's
# scheduling. -count=1 on the pinned leg because the test cache does not
# key on GOMAXPROCS.
test:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	$(GO) test ./...

race:
	$(GO) test -race ./internal/dpu ./internal/tensor ./internal/softfloat ./internal/isa ./internal/host ./internal/trace ./internal/metrics ./internal/exec ./internal/gemm ./internal/ebnn ./internal/nn ./internal/yolo ./internal/alexnet ./internal/resnet ./internal/plan ./cmd/upmem-top ./cmd/upmem-serve ./cmd/upmem-profile

# internal/gemm's block MAC and internal/ebnn's classifier are assembly
# where the host has AVX2 (and POPCNT, for ebnn) and Go loops everywhere
# else, and no amd64 CI host runs the loops through the kernels. As a 386
# binary (which an amd64 Linux host executes natively) the gemm, nn,
# tensor and ebnn suites — every functional and differential test over
# gemm's flatPass, and TestInferInvariance and the eBNN differential
# tests through predictPacked — run on the loops end to end; the arm64
# leg is a cross-build and a vet of gemm's and ebnn's per-arch files,
# and the s390x leg a vet of tensor and gemm as a big-endian build
# (where internal/tensor encodes int16 through byte stores, not through
# a view).
portable:
	GOARCH=386 $(GO) test -count=1 ./internal/gemm ./internal/nn ./internal/tensor ./internal/ebnn
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/gemm ./internal/ebnn
	GOARCH=s390x $(GO) vet ./internal/tensor ./internal/gemm

# The five benchmarks the profile, profile-array, profile-rows,
# profile-ebnn and profile-serve targets name, one iteration each:
# nothing else in ci executes them, so a benchmark that no longer builds
# or runs shows here (~5 s).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorWallClock$$|BenchmarkFullArrayYOLOForward$$|BenchmarkRowsZoo$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkEBNNStream$$' -benchtime 1x ./internal/ebnn
	$(GO) test -run '^$$' -bench 'BenchmarkServeInfer$$' -benchtime 1x ./cmd/upmem-serve

# The fuzz targets, ~10 s each beyond their checked-in corpora (which
# `make test` runs): the /v1/infer body decode against encoding/json,
# and gemm's block MAC and its Go loops against a per-element reference.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzInferBody$$' -fuzztime 10s ./cmd/upmem-serve
	$(GO) test -run '^$$' -fuzz '^FuzzMACBlock$$' -fuzztime 10s ./internal/gemm

# The simulated clock must not depend on the host's core count: rows_zoo
# and ebnn_stream at GOMAXPROCS=1 and at the host's width report
# identical sim_cycles_per_op and sim_xfer_bytes_per_op.
sim-invariant:
	GO=$(GO) scripts/sim-invariant.sh

# cmd/experiments prints only simulated quantities, so its stdout is
# byte-identical across runs, core counts and any change that leaves the
# simulated clock alone: compare the full report, the quick report with
# the P1 planner rows (-quick -plan: the full report is pinned once) and
# the quick report under an armed fault plan (the F1 recovery rows)
# against the checked-in goldens, and each examples/ program's
# stdout (seeded data, deterministic too) against
# testdata/examples/<name>.golden (~10 s). A PR that means to move a
# simulated number regenerates them with `make report-update` and says
# which rows moved.
EXAMPLES = $(notdir $(wildcard examples/*))

FAULTS = dead=0.3,after=1,seed=1,transfer=0.01,trap=0.01

report-check:
	$(GO) run ./cmd/experiments | cmp - testdata/experiments.golden
	$(GO) run ./cmd/experiments -quick -plan | cmp - testdata/experiments-plan.golden
	$(GO) run ./cmd/experiments -quick -faults "$(FAULTS)" | cmp - testdata/experiments-faults.golden
	@for e in $(EXAMPLES); do echo "examples/$$e"; $(GO) run ./examples/$$e | cmp - testdata/examples/$$e.golden || exit 1; done

report-update:
	$(GO) run ./cmd/experiments > testdata/experiments.golden
	$(GO) run ./cmd/experiments -quick -plan > testdata/experiments-plan.golden
	$(GO) run ./cmd/experiments -quick -faults "$(FAULTS)" > testdata/experiments-faults.golden
	@for e in $(EXAMPLES); do $(GO) run ./examples/$$e > testdata/examples/$$e.golden || exit 1; done

# The repo benchmark (BENCHMARK.json's four workloads), three runs each,
# medians on stdout; bench/README.md describes the metrics.
bench:
	$(GO) run ./bench -repeat 3

# Non-test Go lines (and assembly: *.s is code) per package and in total,
# bench/ excluded, then the test lines (*_test.go, bench/ excluded; the
# ROADMAP gate is test lines <= non-test lines), the number of func
# Test*/Fuzz* in those files, the test budget margin (non-test lines -
# test lines: the gate holds while it is >= 0) and the number of tracked
# files: run it at the parent commit and at the change to report a PR's
# net deltas. It fails when the margin is negative.
CODE_FILES = find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0
lines:
	@$(CODE_FILES) | xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -k2
	@code=$$($(CODE_FILES) | xargs -0 cat | wc -l); \
	find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | awk -v code=$$code '/^func (Test|Fuzz)/ { f++ } \
			END { printf "%7d test lines\n%7d test functions\n%7d test budget margin\n", NR, f, code - NR; \
				if (code < NR) { print "test budget margin is negative: test lines outgrow non-test lines"; exit 1 } }'
	@git ls-files 2>/dev/null | wc -l | awk '{ printf "%7d tracked files\n", $$1 }'

# Every top-level func in a non-test file under internal/ that no main
# package (cmd/*, examples/*, bench) and no exported function of package
# pimdnn links, then the count: what only tests reach. Fails on any such
# func scripts/reach.allow does not list with its reason.
reach:
	@GO=$(GO) scripts/reach.sh

# CPU-profile the simulator hot path and print the top cumulative
# functions (cpu.prof is left behind for `go tool pprof -http`).
profile:
	$(GO) test -run xxx -bench BenchmarkSimulatorWallClock -benchtime 500x -cpuprofile cpu.prof .
	$(GO) tool pprof -top -cum -nodecount=10 pimdnn.test cpu.prof

# The same for the steady-state full-array batch forward (one image per
# DPU on all 2,560): the profile behind the array_yolo workload. The last
# lines are the cumulative share of the gemm kernel's functional pass
# (flatPass, under the batch blockKernel closure), the "kernel share" a
# PR cites, then the share of its multiply-accumulate (gemm.macBlock
# and everything under it: the assembly, or the Go loops where that is
# what runs), the scatter's (dpu.writeRows: im2col lowering each
# image's B in place into MRAM, and everything under it), the launch's
# own host work (dpu.launch flat: running and merging the tasklets
# that ran; about 2 % on a 2-core Xeon, go1.24.0, where 3 % is the
# gate; there kernel-share read 32 % and mac-share 11 %), then the bytes
# one steady-state pass allocates (the benchmark's
# B/op, which leaves out its warm-up pass; the run's output is kept in
# bench-array.out):
# `make profile-array | grep -e '-share ' -e '^alloc-per-pass'`.
# `go tool pprof -peek 'DPU\)\.mramWrite$' pimdnn.test cpu.prof` must
# name dpu.(*Tasklet).WriteMRAM its only caller: the batch pass makes no
# staged host copy into MRAM (its scatter is dpu.writeRows).
profile-array:
	$(GO) test -run xxx -bench 'BenchmarkFullArrayYOLOForward$$' -benchtime 4x -cpuprofile cpu.prof . > bench-array.out; \
		status=$$?; cat bench-array.out; exit $$status
	$(GO) tool pprof -top -cum -nodecount=25 pimdnn.test cpu.prof
	@$(GO) tool pprof -top -cum pimdnn.test cpu.prof 2>/dev/null \
		| awk '/gemm\.\(\*Runner\)\.flatPass$$/ { print "kernel-share gemm.flatPass cum " $$5 } \
			/gemm\.macBlock( |$$)/ { print "mac-share gemm.macBlock cum " $$5 } \
			/dpu\.\(\*DPU\)\.writeRows( |$$)/ { print "scatter-share dpu.writeRows cum " $$5 } \
			/dpu\.\(\*DPU\)\.launch$$/ { print "launch-share dpu.launch flat " $$2 }'
	@awk '/^BenchmarkFullArrayYOLOForward/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print "alloc-per-pass " $$i " B/op" }' bench-array.out

# And for the ebnn_stream workload's shape (LUT + float runners, 32 DPUs
# x 16 images x 4 waves). The last four lines are the cumulative shares
# of the DPU kernel (the functional pass plus the launch's one charge),
# of the functional pass alone (flatPass: one cell-table load per pooled
# cell), of the host classifier (Runner.classify, the worker-pool body,
# and everything under it) and of the launch charge (ChargeLaunch, fed by
# the runner's cost cache; 0 % when the profile holds no sample of it);
# on a 2-core Xeon, go1.24.0, classify (the AVX2 class lanes) reads about
# 34 % and flatPass about 37 %: `make profile-ebnn | grep -e '-share '`.
profile-ebnn:
	$(GO) test -run xxx -bench 'BenchmarkEBNNStream$$' -benchtime 200x -cpuprofile cpu.prof -o ebnn.test ./internal/ebnn
	$(GO) tool pprof -top -cum -nodecount=25 ebnn.test cpu.prof
	@$(GO) tool pprof -top -cum ebnn.test cpu.prof 2>/dev/null \
		| awk '/\(\*Runner\)\.kernel\.func[0-9]+$$/ { print "kernel-share ebnn.kernel cum " $$5 } \
			/ebnn\.\(\*kernelLayout\)\.flatPass$$/ { print "cell-share ebnn.flatPass cum " $$5 } \
			/ebnn\.\(\*Runner\)\.classify$$/ { print "classify-share ebnn.classify cum " $$5 } \
			/dpu\.\(\*Tasklet\)\.ChargeLaunch$$/ { ch = $$5 } \
			END { print "charge-share dpu.ChargeLaunch cum " (ch == "" ? "0%" : ch) }'

# And for the rows_zoo workload's shape (the three lite networks,
# planner-mapped row-per-DPU Multiply on 64 DPUs). The last six lines
# are the cumulative shares of the host's broadcast of each GEMM's B
# matrix, of host marshalling (that broadcast plus gemm.packRows, the
# A-row encode), of the im2col lowering, of the gemm kernel's functional
# pass and of its multiply-accumulate, then the flat share of every
# sync.Mutex Lock and Unlock (go1.24 inlines them into internal/sync's):
# `make profile-rows | grep -e '-share '`. 1000 iterations: at 300 the
# lock share of one binary read anywhere from 1.4 to 5.7 % across runs;
# at 1000, on a 2-core Xeon (go1.24.0) where every rows_zoo launch runs
# on the caller, it read 2.2-2.4 %, beside a kernel-share of 32 % and a
# mac-share of 15 %.
profile-rows:
	$(GO) test -run xxx -bench 'BenchmarkRowsZoo$$' -benchtime 1000x -cpuprofile cpu.prof .
	$(GO) tool pprof -top -cum -nodecount=25 pimdnn.test cpu.prof
	@$(GO) tool pprof -top -cum pimdnn.test cpu.prof 2>/dev/null \
		| awk '/host\.\(\*System\)\.CopyToSymbolRef$$/ { bc = $$5 + 0; print "broadcast-share host.CopyToSymbolRef cum " $$5 } \
			/gemm\.packRows( |$$)/ { pk = $$5 + 0 } \
			/tensor\.im2col$$/ { print "im2col-share tensor.im2col cum " $$5 } \
			/gemm\.\(\*Runner\)\.flatPass$$/ { print "kernel-share gemm.flatPass cum " $$5 } \
			/gemm\.macBlock( |$$)/ { print "mac-share gemm.macBlock cum " $$5 } \
			/sync\.\(\*Mutex\)\.(Lock|Unlock)( |$$)/ { lk += $$2 + 0 } \
			END { printf "marshal-share gemm.packRows+host.CopyToSymbolRef cum %.2f%%\n", pk + bc; \
				printf "lock-share sync.(*Mutex).Lock+Unlock flat %.2f%%\n", lk }'

# And for the serve_closed workload's shape (BenchmarkServeInfer: the
# tiny=64x32 model on 8 DPUs, -max-batch 2, two clients posting explicit
# inputs; the clients run in the profiled process too). The last four
# lines are the cumulative shares of the /v1/infer body decode, of the
# batched forward passes and of request tracing (every sample with a
# pimdnn/internal/trace function on its stack), then the bytes one
# request allocates (the benchmark's B/op, clients included; the run's
# output is kept in bench-serve.out):
# `make profile-serve | grep -e '-share ' -e '^alloc-per-request'`.
profile-serve:
	$(GO) test -run xxx -bench 'BenchmarkServeInfer$$' -benchtime 2000x -cpuprofile cpu.prof -o upmem-serve.test ./cmd/upmem-serve > bench-serve.out; \
		status=$$?; cat bench-serve.out; exit $$status
	$(GO) tool pprof -top -cum -nodecount=25 upmem-serve.test cpu.prof
	@$(GO) tool pprof -top -cum upmem-serve.test cpu.prof 2>/dev/null \
		| awk '/upmem-serve\.decodeInferBody( |$$)/ { print "decode-share upmem-serve.decodeInferBody cum " $$5 } \
			/yolo\.\(\*Network\)\.ForwardBatch$$/ { print "forward-share yolo.(*Network).ForwardBatch cum " $$5 }'
	@$(GO) tool pprof -top -focus='^pimdnn/internal/trace\.' -nodefraction=0 -nodecount=0 upmem-serve.test cpu.prof 2>/dev/null \
		| awk '/^Showing nodes accounting for/ { sub(/,$$/, "", $$6); print "trace-share pimdnn/internal/trace cum " $$6 }'
	@awk '/^BenchmarkServeInfer/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print "alloc-per-request " $$i " B/op" }' bench-serve.out

ci: vet build test race portable bench-smoke fuzz sim-invariant report-check reach lines
