package hw

import "time"

// Cost-model constants. Each constant is annotated with its provenance:
//
//   - "paper": a number stated in the OMG paper (or in the SANCTUARY paper it
//     cites for platform costs) that we adopt directly.
//   - "calibrated": chosen so that the end-to-end Table I pipeline lands near
//     the paper's measured totals on the simulated 2.4 GHz core.
//   - "estimated": a plausible architectural figure with no paper source;
//     only latency *shapes* depend on these.
const (
	// BigCoreHz is the clock of the four "big" cores. [paper §VI]
	BigCoreHz = 2_400_000_000
	// LittleCoreHz is the clock of the four "LITTLE" cores. [paper §VI]
	LittleCoreHz = 1_800_000_000
	// DRAMSize is the physical memory size (3 GB). [paper §VI] The simulator
	// backs only the pages actually used, so tests may use far less.
	DRAMSize = 3 << 30

	// CacheLineSize is the line size of both cache levels. [estimated]
	CacheLineSize = 64
	// L1Sets and L1Ways describe a 32 KiB 4-way per-core L1 data cache.
	// [estimated, typical Cortex-A73]
	L1Sets = 128
	L1Ways = 4
	// L2Sets and L2Ways describe a 1 MiB 16-way shared L2. [estimated]
	L2Sets = 1024
	L2Ways = 16

	// L1HitCycles, L2HitCycles and DRAMCycles are per-line access latencies
	// charged to the initiating core. [estimated]
	L1HitCycles  = 4
	L2HitCycles  = 22
	DRAMCycles   = 160
	PeriphCycles = 60 // MMIO register or FIFO beat [estimated]
)

// WorldSwitchTime is the cost of a world switch from a SANCTUARY App to the
// secure world and back (one SMC round trip). [paper §VI: "the switch from an
// SA to the secure world takes around 0.3 ms", citing SANCTUARY]
const WorldSwitchTime = 300 * time.Microsecond

// Core power-management costs, charged when SANCTUARY shuts a core down and
// boots it with the SANCTUARY Library. [estimated from SANCTUARY's reported
// SA setup times; only E5/E6 phase costs depend on them]
const (
	CoreShutdownTime = 2 * time.Millisecond
	CoreBootTime     = 25 * time.Millisecond
)

// Arithmetic cost model for code executed on a simulated core. The TFLM
// reference kernels are portable C without NEON, so a quantized
// multiply-accumulate costs well above one cycle. [calibrated: one utterance
// through frontend+tiny_conv ≈ 3.79 ms at 2.4 GHz, Table I]
//
// The cost model is a property of the MODELED device, not of the host
// kernels that simulate it: the engine's SWAR and AVX2 GEMM kernels retire
// several int8 MACs per host instruction and the serving layer's worker
// pool spreads utterances across host cores, but both change only wall
// time — CyclesPerMAC still prices the portable scalar kernel the paper's
// device runs, and metering still charges every utterance's full cycle
// count on its (single) enclave core. Recalibrate these constants only if
// the modeled device changes.
const (
	CyclesPerMAC           = 18         // int8 MAC incl. requantization amortization
	CyclesPerButterfly     = 14         // fixed-point radix-2 FFT butterfly
	CyclesPerRFFTPostBin   = 7          // real-FFT split post-pass per spectrum bin (half a butterfly's rotate+combine)
	CyclesPerActivation    = 4          // ReLU / clamp per element
	CyclesPerSoftmaxTerm   = 40         // exp approximation per logit
	CyclesPerFeatureBin    = 6          // bin averaging + log compression per bin
	CyclesPerByteCopy      = 1          // bulk copies (memcpy-like), per byte
	CyclesPerByteHash      = 12         // SHA-256 measurement, per byte [estimated]
	CyclesPerByteAES       = 24         // AES-GCM without crypto extensions [estimated]
	CyclesPerRSA2048Sign   = 26_000_000 // ~11 ms at 2.4 GHz [estimated]
	CyclesPerRSA2048Verify = 700_000    // ~0.3 ms at 2.4 GHz [estimated]
)

// RSAKeygenTime models RSA-2048 key-pair generation, performed once per
// enclave instance during the preparation phase. [estimated]
const RSAKeygenTime = 120 * time.Millisecond
