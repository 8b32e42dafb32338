// Package repro is a from-scratch Go reproduction of "Offline Model Guard:
// Secure and Private ML on Mobile Devices" (Bayerl et al., DATE 2020).
//
// The implementation lives under internal/: a cycle-approximate ARM SoC
// simulator with TrustZone and SANCTUARY enclaves, a TFLM-style int8
// inference engine, the paper's audio frontend and training pipeline, the
// OMG three-phase protocol, a network serving edge, and HE/SMPC baselines.
// ARCHITECTURE.md is the onboarding entry point — the data-flow map, the
// ownership and bit-exactness rules, and the metering stance in one place.
// ARCHITECTURE.md also holds the design rationale and the kernel tiers;
// perfbench/README.md documents the end-to-end benchmark and its per-layer
// metrics, and cmd/omg-bench regenerates every table of the evaluation.
//
// The benchmarks in this package (bench_test.go) cover every table and
// figure of the paper's evaluation; run them with
//
//	go test -bench=. -benchmem .
//
// # Inference hot path
//
// The engine's linear-algebra hot path is an implicit GEMM
// (internal/tflm/gemm.go): an int8 convolution copies its input's interior
// rows into a padded image whose border prep filled with the input zero
// point once, and every output position then reads its window of that
// image in place through a prep-time table of 8-byte source offsets; a
// fully-connected layer reads its input rows the same way. The
// int8×int8→int32 sums start from per-filter seeds with the zero-point
// corrections bias[oc] − inZP·Σw[oc] folded in. The MAC kernel is chosen
// from the hardware at prep time, and prep builds only that kernel's
// weight image. On amd64 CPUs with AVX2 it is an assembly kernel
// (internal/tflm/gemm_avx2_amd64.s) that walks a whole output row per
// call: VPMOVSXBW widens two 8-byte halves of activations to int16,
// VPMADDWD multiplies them against one filter's int16 weights and adds
// pairs into int32 lanes — which cannot saturate on int8 operands,
// |pair| ≤ 2·128² — wrapping VPADDD accumulates eight filters at once,
// and the requantization runs on the eight sums in registers; weights are
// packed once into 8-filter × 16-depth panels. Everywhere else,
// including the paper's ARM target, the portable SWAR kernel (internal/
// tflm/swar.go) runs: it biases both operands to unsigned bytes and packs three depth
// positions per uint64 at 21-bit lane spacing — activations ascending,
// weights reversed — so one 64-bit multiply carries a three-term dot
// product in bits 42..62 with provably no cross-lane carries; raw products
// accumulate for eight groups before a single shift+mask folds the lane
// out, and the bias corrections (−128·Σw at prep time, −128·Σu per packed
// row) restore the exact signed sum. Weights repack once at plan time into
// 4-filter interleaved panels of packed words (packPanels); the
// requantization constants are likewise hoisted. Every intermediate is an
// exact integer, so results equal the scalar reference's wrapped int32
// accumulation modulo 2^32 — bit-exact on both kernels, including the
// −128·−128 corner, which the checked-in fuzz corpora (FuzzSWARDot,
// FuzzGEMMKernel) pin. The depthwise
// interior rides the same primitive when its reduction axis is contiguous
// (single input channel). Interpreters prep every node at construction, so
// Invoke is allocation-free. The inner loops are additionally restructured
// so the compiler proves every slice access in range — the functions listed
// in bce_clean.txt compile with zero bounds checks, a contract `make
// bce-check` enforces; ARCHITECTURE.md "Kernel tiers" documents the idioms,
// the cache-blocking tile sizes and the experiments that were measured and
// rejected.
//
// Interpreter.PlanBatch/InvokeBatch is the stacked-utterance face of the
// same engine: up to the planned capacity of utterances are staged into
// per-tensor slabs (BatchInput) and classified in one pass over the graph
// — each convolution copies each utterance into the plan's padded image and
// runs its windows through the shared weight panels while they are
// cache-hot, pure-copy reshapes alias away entirely, and softmax sweeps
// all stacked rows at once, with plan-owned image/GEMM/softmax scratch so
// the zero-allocation invariant survives. The batch executes
// cache-blocked: the node list sweeps a few utterances at a time (sized at
// plan time so a tile's activation rows fit well inside L1d) so producer
// output is consumed while still resident — an iteration-order change
// only, bit-identical results, but it makes batching a throughput win even
// on one core. Output rows (BatchOutput) stay valid until the next
// InvokeBatch. Results are bit-exact with serial Invoke, and cycle
// metering still charges every utterance's full simulated cost. Host
// parallelism comes from the serving layer's worker pool, one interpreter
// per worker, not from inside a batch.
//
// Model.Validate accepts exactly what Invoke runs: every node is checked
// against its kernel's dtype, rank, quantization, constness and geometry
// rules at load, so each node has one prepped execution path and a
// malformed blob is rejected instead of crashing the loader. Every
// optimized kernel has a scalar reference twin
// (internal/tflm/op_ref_test.go), a test oracle only, and is kept
// bit-exact against it by randomized equivalence tests that run one-node
// models through the interpreter under both GEMM kernels, plus fuzz suites
// for the SWAR dot product and the GEMM kernels; new operators must ship
// the same pair. The simulated-device cycle model (NodeCycles,
// hw/cost.go) is untouched by all of this: host kernels are fast, modeled
// hardware costs are calibrated — SWAR, AVX2 and batching change wall
// time, never sim-cycles.
//
// # Real-input FFT frontend
//
// The fingerprint frontend (internal/dsp) feeds real audio frames, so its
// spectrum comes from a real-input FFT: the FFTSize real samples are packed
// as an FFTSize/2-point complex FFT (even samples real, odd imaginary) and
// the half-spectra are unzipped in a split post-pass — about half the
// butterflies and twiddle loads per frame of the full complex transform,
// with the same 1/FFTSize output scaling. Each frame runs as one fused
// kernel (Frontend.frameInto): the Hann window multiply happens inside the
// bit-reversed gather, which also runs the first two butterfly stages (the
// exact twiddles 1 and -i) in registers; the remaining stages run in
// radix-2² pairs over interleaved {Re, Im} values with one rounding shift
// per twiddle product; the unzip squares each bin while it is in registers;
// the bin average multiplies by a per-feature reciprocal instead of
// dividing; and log compression is a (bit length, next 3 bits) bucket
// lookup plus at most two integer threshold steps, from a table built
// against the float reference itself. On amd64 CPUs with AVX2 the gather,
// the stage pairs and the unzip run as assembly
// (internal/dsp/frame_avx2_amd64.s) — VPGATHERDD plus VPMADDWD for the
// windowed gather, four butterflies per ymm in int32 lanes, four unzip
// pairs per step in VPMULDQ 64-bit lanes — chosen once from CPUID
// (internal/cpufeat, shared with the GEMM), with the Go loops everywhere
// else; both are bit-exact with each other stage by stage
// (FuzzFrameKernels). The fused kernel is byte-exact with the unfused
// pipeline — rfftFixed, integer averaging, float logCompress
// (TestFrontendFusedEquivalence, TestFrontendFFTSizeSweep over every FFT
// size from 2 to 1024, FuzzFrontendFrame, each under both kernels) — and
// ExtractInto and dsp.Streamer share it, so streamed fingerprints stay
// exact too. Feature bytes match the old full-size-FFT path within one
// least-significant step: the split post-pass rounds where the discarded
// butterfly stage truncated. FFTFixed, RFFTFixed and FFTFloat remain as reference
// transforms with error-bound tests, and Frontend.Cycles models the halved
// butterfly count plus the post-pass (hw.CyclesPerRFFTPostBin) — the
// fusion changes host wall time only, never simulated cycles.
//
// # Streaming serving
//
// internal/core.Server is the persistent host-throughput layer: long-lived
// worker goroutines — each owning a private interpreter over a
// weight-sharing tflm.Model.Clone plus a private zero-alloc DSP frontend —
// fed by a buffered submission queue (Submit, SubmitFuncDeadline and
// TrySubmitFuncDeadline for utterances, OpenStream+Stream.Submit for
// continuous audio, RunBatch for whole batches). A full queue is the
// backpressure signal; Close drains in-flight work. Experiment E11
// (omg-bench), BenchmarkBatchInference and BenchmarkServerThroughput
// measure its scaling.
//
// Continuous audio goes through dsp.Streamer, the incremental face of the
// frontend: it holds a ring of per-frame log-mel feature rows, computes one
// FFT per newly completed 20 ms hop, and assembles the current 49×43
// fingerprint by rotation — ~49× less frontend work per window than full
// recomputation in steady state, with zero allocations, and bit-exact
// against ExtractInto (BenchmarkStreamingExtract, E12).
//
// Server workers run every job through one planned InvokeBatch call: a
// lone job is a batch of one, and when more are pending a worker drains up
// to ServerConfig.MaxBatch of them into the same call. Each job then
// finishes through its one completion, whatever the submission form: a
// ticket (Submit, RunBatch, a stream hop), which recycles through a
// freelist (Pending.Release); the caller's callback
// (Server.SubmitFuncDeadline, invoked on the completing worker); or, after
// Stream.OnResult, a per-stream sequencer that delivers hop results
// strictly in hop order. Submit, the callback forms and OnResult streams
// allocate nothing in steady state, and Close drains: every submission accepted before Close has
// completed (ticket resolved, callback fired) by the time Close returns.
//
// # Network serving edge
//
// internal/netfront turns the server into the paper's "ML-as-a-service,
// deployed offline" boundary: a length-prefixed binary protocol over TCP
// or Unix sockets (cmd/omg-serve) multiplexing three request kinds —
// one-shot utterance, open stream with chunked audio and per-hop results
// in hop order, and whole batches — from any number of connections onto
// one shared core.Server. Queue backpressure surfaces as an explicit BUSY
// reply instead of blocking the read loop, and the per-connection
// read→decode→submit path reuses pooled frames, sample buffers and
// pre-bound callbacks — 0 allocs/op in steady state. Labels over the wire
// are bit-exact with direct Server calls. internal/netfront/client is the
// Go client; BenchmarkNetServerThroughput and experiment E14 measure the
// loopback edge against the in-process ceiling, and the streaming-client
// example is the guided tour.
//
// The edge is fault-tolerant by contract — ARCHITECTURE.md "Failure
// semantics" is the authoritative statement. Wire protocol v2 replies
// carry structured errors (code + retry-after hint); worker panics are
// recovered with the pool at full strength (core.Server.InjectPanic is the
// chaos hook); queue deadlines shed stale work at dequeue; the client
// offers bounded dials, request deadlines, opt-in retry with backoff and
// jitter, and redial-with-backoff (streams fail cleanly with
// ErrStreamBroken, never duplicating hops); FrontEnd.Shutdown drains
// gracefully under a grace period (SIGTERM in cmd/omg-serve). The
// internal/netfront/faultconn package injects deterministic network chaos
// — latency, partial writes, resets, stalls, corruption — and `make chaos`
// gates every profile under the race detector.
//
// Above the single server sits core.Registry, the multi-tenant tier —
// ARCHITECTURE.md "Multi-model serving & swap contract" is the
// authoritative statement. The registry maps model ids to shard sets of
// servers behind the core.Engine interface, admits work through per-tenant
// bounded queues under deficit-round-robin weighted fair queueing (a
// flooding tenant sheds its own traffic, goodput follows configured
// weights), and hot-swaps a model's weights in place with zero dropped
// requests: Registry.Swap verifies a signed, encrypted, version-monotonic
// model package, flushes already-admitted work to the old generation
// (bit-exact on the weights it was accepted under), flips the live-set
// pointer, and drains the retired servers. Wire protocol v3 adds an
// optional hello handshake binding a connection to a tenant and model
// (acked with the model version) and CodeModelSwapped for streams pinned
// to a retired generation; cmd/omg-serve serves a registry from -models/
// -shards/-tenants flags and hot-swaps every model on SIGHUP. The
// swap-storm chaos profile gates swaps overlapping transport faults.
//
// The registry heals itself — ARCHITECTURE.md "Health, breakers &
// overload control" is the authoritative statement. Every shard carries a
// health score (consecutive hard failures + error EWMA) feeding a
// three-state circuit breaker: an open shard leaves the DRR rotation
// (traffic rides the survivors bit-exactly), half-open admits one probe,
// and a supervisor rebuilds persistently-broken shards under capped
// exponential backoff — swap always wins a race with rebuild.
// Registry.Health() snapshots it all; FrameHealth queries it over the
// wire; omg-serve dumps it on SIGUSR1. Admission adds a queue-delay
// overload controller (CoDel-style target sojourn) that sheds over-share
// tenants first with computed retry-after hints, which the client floors
// its backoff on; the client can also hedge slow one-shot requests
// (Options.Hedge, first reply wins, never for streams). The panic-storm
// chaos profile gates self-healing: breakers trip under a shard-kill
// storm, zero admitted requests are lost, and the registry recovers to
// full strength.
//
// The serving edge is held to SLOs, not just throughput — ARCHITECTURE.md
// "Tail latency & SLOs" is the authoritative statement. internal/loadgen
// is an open-loop (Poisson-arrival) generator whose offered load is a
// deterministic function of config and seed — a stalled server cannot
// slow it down — with coordinated-omission-corrected latencies recorded
// into lock-free log-linear histograms (~3% relative error, 0 allocs per
// record) and outcomes split into completed / BUSY / shed (with the
// server's retry-after hints) / protocol error plus a Jain fairness index
// over tenants. cmd/omg-loadgen is the CLI (live address or in-process
// server, benchjson-compatible -json); the loadgen example is the guided
// tour. `make slo-smoke` gates a mixed one-second run on every CI pass,
// and BenchmarkServedTailLatency gates the median-of-3 open-loop p99.
//
// On the protected path, KWSApp.QueryBatch(n) runs n capture→extract→invoke
// iterations inside a single enclave Run, pulling several utterances per
// SMC round trip through the shared-SW window, classifying each
// window-full through one stacked InvokeBatch, and reusing app-owned
// scratch, which amortizes the world-switch overhead of the per-query
// Table-I path (visible in E12's simulated-time column; host wall time is
// extraction/GEMM-bound and therefore at parity).
package repro
