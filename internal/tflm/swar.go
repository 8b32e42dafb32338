package tflm

// SWAR (SIMD-within-a-register) int8 dot-product primitives: the arithmetic
// core of the portable GEMM micro-kernel in gemm.go and of the depthwise
// interior sweep. One 64-bit multiply retires three int8 MACs.
//
// Lane layout. Both operands are biased to unsigned bytes u = a+128,
// v = w+128 ∈ [0,255] (a byte XOR with 0x80). Three consecutive depth
// positions pack into one uint64 with 21-bit lane spacing — activations in
// ascending order, weights reversed:
//
//	X = u0 | u1<<21 | u2<<42          Y = v2 | v1<<21 | v0<<42
//
// The product X·Y = c0 + c1·2^21 + c2·2^42 + c3·2^63 + c4·2^84 then carries
// the three-term dot product c2 = u0·v0 + u1·v1 + u2·v2 in bits 42..62:
//
//   - c0 = u0·v2 ≤ 255² < 2^17 and c1 = u0·v1 + u1·v2 < 2^18, so
//     c0 + c1·2^21 < 2^39 — nothing below carries into bit 42;
//   - c2 < 2^18 fits its 21-bit window, so nothing carries into bit 63;
//   - c3 lands at bit 63 and c4 past bit 64; the 21-bit mask below bit 63
//     excludes both, and the uint64 truncation of X·Y only drops bits ≥ 64.
//
// Extraction is therefore exact: mid = (X*Y >> 42) & (1<<21 − 1). The bias
// is removed once per reduction, not per lane: Σa·w = Σu·v − 128·Σu −
// 128·Σv + K·128², with Σv folded into prep-time seeds by the GEMM and Σu
// accumulated while packing X. Every quantity is an exact integer, so the
// final int32 truncation equals the scalar reference's wrapped int32
// accumulation modulo 2^32 — bit-exactness needs no reassociation argument
// beyond the one the blocked kernels already relied on. The "saturating"
// corner −128·−128 = 16384 is an ordinary in-range lane value here (u=v=0,
// recovered entirely by the correction terms); the fuzz suite pins it.

// Why not 4 depths × 16-bit lanes? The tempting denser layout — four byte
// lanes at 16-bit spacing, X·Y carrying Σ4 u·v in one window — does not
// survive the carry analysis: a single cross-lane window accumulates up to
// 4·255² = 260100 ≥ 2^16 from one multiply alone, so the dot-product window
// overflows into its neighbor before any deferred folding could help.
// Dropping to signed 7-bit operands or 2-depth windows gives up more MACs
// than it gains. The 3×21-bit layout is the densest carry-free packing for
// full-range int8 (2^18 per window, 3 bits of headroom → swarBlock=8
// deferred folds), so the FC sweep keeps it. SWAR is the GEMM path off
// amd64 and on amd64 CPUs without AVX2; where AVX2 exists the assembly
// kernel (gemm_avx2_amd64.s) replaces it. Measured on a 2-vCPU Intel Xeon
// KVM guest (BenchmarkGEMMMicroKernel, SWAR → AVX2): ~1.6–1.7 → 6–8.4
// Gmac/s conv, ~2.5–3.9 → 23–26 Gmac/s FC.
const (
	// swarGroup is how many depth positions one 64-bit multiply covers.
	swarGroup = 3
	// swarShift is the lane spacing in bits; 3·21+16 = 79-bit products keep
	// the mid window carry-free (see the layout proof above).
	swarShift = 21
	// swarMidMask extracts the mid lane after the 2·swarShift shift.
	swarMidMask = 1<<swarShift - 1
	// swarBias recenters int8 to unsigned bytes (x ^ swarBias == x + 128).
	swarBias = 0x80
)

// swarGroups returns how many packed uint64 groups a depth-k reduction
// needs.
func swarGroups(k int) int { return (k + swarGroup - 1) / swarGroup }

// swarFoldGroups bounds how many packed words may sum lane-wise into one
// uint64 before a 21-bit lane could overflow: 255·8191 < 2^21. Rows longer
// than swarGroup·8191 depths fold in chunks.
const swarFoldGroups = 8191

// swarExpandRow packs one GEMM activation row into x (ascending lane order,
// zero lanes past len(a) so padded groups contribute nothing) and returns
// the row's bias correction −128·Σu. Σu itself rides the packed words: lane
// sums cannot carry for swarFoldGroups words at a time, so the running
// total costs one 64-bit add per group and three folds per chunk. x must
// hold swarGroups(len(a)) words.
//
// The loop walks both slices by reslicing (a three bytes, x one word per
// group): the `len(a) >= swarGroup && len(x) > 0` condition is what lets the
// compiler prove every element access in range, so the packing loop carries
// no bounds checks (enforced by make bce-check).
func swarExpandRow(a []int8, x []uint64) int32 {
	if len(x) < swarGroups(len(a)) {
		panic("tflm: swarExpandRow scratch too short")
	}
	var usum uint64
	for len(a) > 0 {
		ca := a
		if len(ca) > swarGroup*swarFoldGroups {
			ca = ca[:swarGroup*swarFoldGroups]
			a = a[swarGroup*swarFoldGroups:]
		} else {
			a = nil
		}
		var vec uint64
		// Main loop: read four bytes at once (the compiler fuses the byte
		// ORs into one 32-bit load), bias the three live lanes with a single
		// XOR, and spread them to 21-bit spacing — one load and nine ALU ops
		// per group instead of three loads and ten. Requires one byte of
		// lookahead, so the final group of the row falls through below.
		for len(ca) > swarGroup && len(x) > 0 {
			v := uint32(uint8(ca[0])) | uint32(uint8(ca[1]))<<8 |
				uint32(uint8(ca[2]))<<16 | uint32(uint8(ca[3]))<<24
			v ^= swarBias | swarBias<<8 | swarBias<<16
			w := uint64(v&0xff) | uint64(v&0xff00)<<(swarShift-8) |
				uint64(v&0xff0000)<<(2*swarShift-16)
			x[0] = w
			vec += w
			ca = ca[swarGroup:]
			x = x[1:]
		}
		if len(ca) == swarGroup && len(x) > 0 {
			w := uint64(uint8(ca[0])^swarBias) |
				uint64(uint8(ca[1])^swarBias)<<swarShift |
				uint64(uint8(ca[2])^swarBias)<<(2*swarShift)
			x[0] = w
			vec += w
			ca = ca[swarGroup:]
			x = x[1:]
		}
		if len(ca) > 0 && len(x) > 0 {
			var q uint64
			for t := range ca {
				q |= uint64(uint8(ca[t])^swarBias) << (uint(t) * swarShift)
			}
			x[0] = q
			vec += q
			x = x[1:]
		}
		usum += (vec & swarMidMask) + (vec >> swarShift & swarMidMask) + (vec >> (2 * swarShift))
	}
	return -swarBias * int32(usum)
}

// swarPackReversed packs a weight vector into reversed-lane groups (the Y
// operand). Lanes past len(w) hold the biased zero weight — they only ever
// multiply zero activation lanes.
func swarPackReversed(w []int8, x []uint64) {
	for g := range x {
		var q uint64
		for t := 0; t < swarGroup; t++ {
			v := uint64(swarBias)
			if i := g*swarGroup + t; i < len(w) {
				v = uint64(uint8(w[i]) ^ swarBias)
			}
			q |= v << (uint(swarGroup-1-t) * swarShift)
		}
		x[g] = q
	}
}

// swarSum returns Σw over a weight vector as an int32 (the prep-time half of
// the bias correction).
func swarSum(w []int8) int32 {
	var s int32
	for _, v := range w {
		s += int32(v)
	}
	return s
}

// swarDotI8 is the standalone SWAR dot product Σ a[i]·b[i] (mod 2^32, like
// the scalar int32 accumulation it replaces). It packs both operands on the
// fly and removes the bias inline; the GEMM kernel hoists the same
// corrections to prep/row time. This is the unit the fuzz and equivalence
// suites pin against the scalar reference.
func swarDotI8(a, b []int8) int32 {
	k := len(a)
	var mid, usum, vsum uint64
	i := 0
	for ; i+swarGroup <= k; i += swarGroup {
		u0 := uint64(uint8(a[i]) ^ swarBias)
		u1 := uint64(uint8(a[i+1]) ^ swarBias)
		u2 := uint64(uint8(a[i+2]) ^ swarBias)
		v0 := uint64(uint8(b[i]) ^ swarBias)
		v1 := uint64(uint8(b[i+1]) ^ swarBias)
		v2 := uint64(uint8(b[i+2]) ^ swarBias)
		x := u0 | u1<<swarShift | u2<<(2*swarShift)
		y := v2 | v1<<swarShift | v0<<(2*swarShift)
		mid += (x * y >> (2 * swarShift)) & swarMidMask
		usum += u0 + u1 + u2
		vsum += v0 + v1 + v2
	}
	for ; i < k; i++ {
		u := uint64(uint8(a[i]) ^ swarBias)
		v := uint64(uint8(b[i]) ^ swarBias)
		mid += u * v
		usum += u
		vsum += v
	}
	return int32(mid) - swarBias*int32(usum) - swarBias*int32(vsum) + int32(k)*swarBias*swarBias
}
