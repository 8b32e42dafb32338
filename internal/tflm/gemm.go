package tflm

import (
	"unsafe"

	"repro/internal/cpufeat"
)

// Optimized linear-algebra hot path: Conv2D and FullyConnected are lowered
// onto one blocked GEMM primitive over im2col-packed patches. The packer
// absorbs all padding handling (border patches are filled with the input
// zero point, interior rows are contiguous copies), so the MAC loops carry
// no bounds checks or zero-point subtractions. The MAC kernel is picked
// from the hardware at prep time (useAVX2): an AVX2 assembly micro-kernel
// on amd64 hosts that have it, the portable SWAR kernel everywhere else.
// Per-filter zero-point
// corrections acc0[oc] = bias[oc] - inZP·Σw[oc] are precomputed once, which
// is exact because int32 accumulation is associative modulo 2^32.
//
// Every kernel here is bit-exact with its scalar reference oracle in
// op_ref_test.go; kernels_equiv_test.go enforces that over randomized
// geometries, running one-node models through the interpreter.

// convGeom is the resolved geometry of one convolution, computed once at
// prep time instead of per Invoke.
type convGeom struct {
	batches, inH, inW, inC int
	outC, kH, kW           int
	outH, outW             int
	padT, padL             int
	strideH, strideW       int
	// K is the im2col depth kH·kW·inC; M is outH·outW patches per batch.
	K, M int
}

// colLen returns the im2col scratch length for one batch.
func (g convGeom) colLen() int { return g.M * g.K }

// linearPrep carries the plan-time constants of one int8 linear op: the
// requantization multiplier, the clamp range, the per-output-channel
// accumulator seeds with bias and zero-point correction folded in, and the
// weight matrix repacked into the panel image of the GEMM micro-kernel.
type linearPrep struct {
	mult       QuantizedMultiplier
	outZP      int32
	lo, hi     int32
	inZP       int32
	acc0       []int32
	activation Activation
	// n, k is the weight matrix geometry. Prep builds exactly one weight
	// image, for the kernel useAVX2 selects:
	//   - AVX2 (wq != nil): kb = ceil(k/16) depth blocks; wq holds
	//     ceil(n/8) panels of kb blocks of eight filters' 16 int16 weights
	//     (packPanelsAVX2), zero-padded past n and k.
	//   - SWAR (wq == nil): kg = ceil(k/3) packed groups; panels holds
	//     ceil(n/4) panels of kg four-lane groups of reversed-lane weight
	//     words (panel p, group g, lane j packs filter 4p+j's depths
	//     3g..3g+2 per swar.go) — the [gemmPanel]uint64 element type keeps
	//     one group's four words a single provably-in-range access for the
	//     micro-kernel.
	// seeds is the kernel's accumulator seed padded to its panel grid so
	// the epilogue indexes whole panels unguarded: acc0 itself for AVX2,
	// the SWAR-corrected acc0 − 128·Σw for SWAR.
	n, k, kg, kb int
	panels       [][gemmPanel]uint64
	wq           []int16
	seeds        []int32
	// Requantization constants hoisted out of QuantizedMultiplier.Apply:
	// acc<<lsh, saturating-rounding-doubling-high-multiply by rqMult, then
	// rounding divide by 2^rsh with the mask/threshold precomputed. The
	// epilogue below reproduces Apply's arithmetic exactly.
	lsh, rsh uint
	rqMult   int64
	rqMask   int32
	rqThr    int32
}

// requantOne is QuantizedMultiplier.Apply with the shift decomposition and
// rounding constants precomputed in pr — bit-identical by construction
// (rqMult is in [2^30, 2^31), so the SQRDMULH saturation corner of two
// MinInt32 operands cannot occur).
func (pr *linearPrep) requantOne(acc int32) int32 {
	x := int32(uint32(acc) << pr.lsh) // TFLite shifts without saturation here
	ab := int64(x) * pr.rqMult
	// Branch-free nudge: 1<<30 for non-negative products, 1-(1<<30) for
	// negative ones (ab>>63 is 0 or -1).
	nudge := int64(1<<30) + (ab>>63)&(1-(1<<31))
	v := int32((ab + nudge) / (1 << 31))
	if pr.rsh == 0 {
		return v
	}
	// Branch-free rounding divide: threshold is rqThr, one higher for
	// negative values; add 1 when the remainder exceeds it.
	thr := pr.rqThr - int32(int32(v)>>31)
	rem := v & pr.rqMask
	v >>= pr.rsh
	v -= (thr - rem) >> 31
	return v
}

// prepRequant derives the hoisted epilogue constants from mult.
func (pr *linearPrep) prepRequant() {
	if pr.mult.Shift > 0 {
		pr.lsh = uint(pr.mult.Shift)
	} else {
		pr.rsh = uint(-pr.mult.Shift)
	}
	pr.rqMult = int64(pr.mult.Multiplier)
	pr.rqMask = int32(1<<pr.rsh) - 1
	pr.rqThr = pr.rqMask >> 1
}

// gemmPanel is the output-channel blocking factor of the SWAR weight
// layout and micro-kernel.
const gemmPanel = 4

// avx2Panel and avx2Depth are the filter and depth blocking of the AVX2
// weight image: dot8AVX2 keeps one ymm accumulator per filter of a panel
// and consumes 16 int8 activations (one VPMOVSXBW) per depth block.
const (
	avx2Panel = 8
	avx2Depth = 16
)

// useAVX2 selects the weight image, and with it the GEMM kernel, that
// prepLinearInt8 builds: true when the CPU and OS support AVX2
// (cpufeat.HasAVX2), which is never the case off amd64. It is read only at prep
// time, so a prepped op keeps its kernel; tests flip it to run both kernels
// in one binary.
var useAVX2 = cpufeat.HasAVX2()

// packPanels repacks an n×k row-major weight matrix into gemmPanel-blocked
// interleaved SWAR panels: within a panel the gemmPanel filters' packed
// weight words of each depth group sit adjacently (one [gemmPanel]uint64
// element per depth group), so the micro-kernel's inner loop walks one
// contiguous stream regardless of which filters it is accumulating. Padding
// lanes (filters ≥ n, depths ≥ k) hold the biased zero weight; their
// accumulators are never stored.
func packPanels(w []int8, n, k int) [][gemmPanel]uint64 {
	nPanels := (n + gemmPanel - 1) / gemmPanel
	kg := swarGroups(k)
	panels := make([][gemmPanel]uint64, nPanels*kg)
	scratch := make([]uint64, kg)
	for o := 0; o < nPanels*gemmPanel; o++ {
		p, j := o/gemmPanel, o%gemmPanel
		if o < n {
			swarPackReversed(w[o*k:(o+1)*k], scratch)
		} else {
			swarPackReversed(nil, scratch)
		}
		for g, q := range scratch {
			panels[p*kg+g][j] = q
		}
	}
	return panels
}

// packPanelsAVX2 repacks an n×k row-major weight matrix into the AVX2
// panel image: filter o's depth i sits at
// wq[((o/8·kb + i/16)·8 + o%8)·16 + i%16], so one panel's eight filters of
// one 16-depth block are 128 contiguous int16 weights — the 256 bytes one
// dot8AVX2 loop iteration reads. Padding filters (≥ n) and depths (≥ k)
// hold zero weights, so the tails add exact zeros.
func packPanelsAVX2(w []int8, n, k int) []int16 {
	kb := (k + avx2Depth - 1) / avx2Depth
	nPanels := (n + avx2Panel - 1) / avx2Panel
	wq := make([]int16, nPanels*kb*avx2Panel*avx2Depth)
	for o := 0; o < n; o++ {
		p, j := o/avx2Panel, o%avx2Panel
		for i, v := range w[o*k : (o+1)*k] {
			b, t := i/avx2Depth, i%avx2Depth
			wq[((p*kb+b)*avx2Panel+j)*avx2Depth+t] = int16(v)
		}
	}
	return wq
}

// prepLinearInt8 builds the prep for a weight matrix laid out as N rows of
// length K (Conv2D OHWI filters flattened, or FullyConnected [out, in]),
// including the panel image of the weights for the selected kernel. The
// tensors passed Validate (checkLinear), so the multiplier is representable.
func prepLinearInt8(in, w, bias, out *Tensor, act Activation, n, k int) *linearPrep {
	mult, _ := requantMultiplier(in, w, out)
	lo, hi := activationRangeQuantized(act, *out.Quant)
	pr := &linearPrep{
		mult:       mult,
		outZP:      out.Quant.ZeroPoint,
		lo:         lo,
		hi:         hi,
		inZP:       in.Quant.ZeroPoint,
		acc0:       make([]int32, n),
		activation: act,
		n:          n,
		k:          k,
	}
	pr.prepRequant()
	grid := gemmPanel
	if useAVX2 {
		grid = avx2Panel
	}
	pr.seeds = make([]int32, (n+grid-1)/grid*grid)
	for o := 0; o < n; o++ {
		sum := swarSum(w.I8[o*k : (o+1)*k])
		pr.acc0[o] = bias.I32[o] - pr.inZP*sum
		pr.seeds[o] = pr.acc0[o]
		if !useAVX2 {
			// The SWAR seed additionally folds in the weight half of the
			// bias correction (−128·Σw); the activation half arrives per
			// row from swarExpandRow.
			pr.seeds[o] -= swarBias * sum
		}
	}
	if useAVX2 {
		pr.kb = (k + avx2Depth - 1) / avx2Depth
		pr.wq = packPanelsAVX2(w.I8, n, k)
	} else {
		pr.kg = swarGroups(k)
		pr.panels = packPanels(w.I8, n, k)
	}
	return pr
}

// gemmScratchLen returns the scratch (in uint64 words) one gemmInt8Requant
// call needs: for SWAR two packed rows of kg groups; for AVX2 one staging
// row of kb·16 bytes when k is not a multiple of 16, none otherwise.
func (pr *linearPrep) gemmScratchLen() int {
	if pr.wq != nil {
		if pr.k%avx2Depth == 0 {
			return 0
		}
		return pr.kb * avx2Depth / 8
	}
	return 2 * pr.kg
}

// im2col packs the receptive fields of batch b of a float32 convolution
// into col, one patch per GEMM row in (ky, kx, ic) order. Out-of-bounds
// positions are filled with zero. Interior rows reduce to contiguous copies.
// (The int8 convolution instead replays a copy program compiled at prep
// time, recordIm2col.)
func im2col(col, src []float32, g convGeom, b int) {
	rowLen := g.kW * g.inC
	m := 0
	for oy := 0; oy < g.outH; oy++ {
		iy0 := oy*g.strideH - g.padT
		// Clip ky to the valid input rows once per output row.
		kyLo, kyHi := 0, g.kH
		if iy0 < 0 {
			kyLo = -iy0
		}
		if iy0+g.kH > g.inH {
			kyHi = g.inH - iy0
		}
		if kyHi < kyLo {
			kyHi = kyLo
		}
		for ox := 0; ox < g.outW; ox++ {
			ix0 := ox*g.strideW - g.padL
			patch := col[m*g.K : (m+1)*g.K]
			m++
			// Clip kx to the valid input columns once per patch; the clip
			// depends only on ox, not on ky.
			kxLo, kxHi := 0, g.kW
			if ix0 < 0 {
				kxLo = -ix0
			}
			if ix0+g.kW > g.inW {
				kxHi = g.inW - ix0
			}
			if kxHi <= kxLo || kyHi <= kyLo {
				fillSlice(patch, 0)
				continue
			}
			fillSlice(patch[:kyLo*rowLen], 0)
			cpLen := (kxHi - kxLo) * g.inC
			srcRow := ((b*g.inH+iy0+kyLo)*g.inW + ix0 + kxLo) * g.inC
			if cpLen == rowLen {
				// Fully interior columns: each kernel row is one straight copy.
				for ky := kyLo; ky < kyHi; ky++ {
					copy(patch[ky*rowLen:(ky+1)*rowLen], src[srcRow:srcRow+rowLen])
					srcRow += g.inW * g.inC
				}
			} else {
				lo, hi := kxLo*g.inC, kxHi*g.inC
				for ky := kyLo; ky < kyHi; ky++ {
					row := patch[ky*rowLen : (ky+1)*rowLen]
					fillSlice(row[:lo], 0)
					copy(row[lo:hi], src[srcRow:srcRow+cpLen])
					fillSlice(row[hi:], 0)
					srcRow += g.inW * g.inC
				}
			}
			fillSlice(patch[kyHi*rowLen:], 0)
		}
	}
}

// fillSlice is the one memclr-style prefill helper: the im2col packer, the
// batch plan's padding prefill and the SWAR scratch all flow through it, so
// the idiom lives (and gets tuned) in exactly one place.
func fillSlice[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// swarBlock is how many raw X·Y products may accumulate in one uint64
// before the mid lane must be folded out: each product contributes < 2^18
// to the 21-bit mid window (and < 2^18 to each lower lane), so eight
// products sum to < 2^21 in every lane — still carry-free, see swar.go.
// Deferring the extraction this way makes the steady-state MAC step a bare
// multiply-add; the shift+mask runs once per block instead of per product.
const swarBlock = 8

// gemmInt8Requant computes dst[m*n] = requant(acc0[n] + A[m]·B[n]) where A
// is M rows of K packed patches and B is the weight panel image in pr. An
// AVX2 image goes to gemmInt8RequantAVX2; the SWAR path follows. Its
// micro-kernel runs two im2col rows against one four-filter panel, three
// depth positions per step: each row is first expanded once into packed
// 21-bit-lane words (xb, caller-owned scratch of pr.gemmScratchLen() words,
// shared across every panel), then each 64-bit multiply against a panel
// word retires three MACs into one of eight raw accumulators, whose mid
// lanes are folded out once per swarBlock groups — see swar.go for the lane
// layout and the carry-freeness proof. Requantization and activation
// clamping are fused into the output write. All intermediate sums are exact
// integers, so the final int32 truncation matches the scalar reference's
// wrapped accumulation bit for bit.
func gemmInt8Requant(mRows int, a []int8, dst []int8, pr *linearPrep, xb []uint64) {
	if pr.wq != nil {
		gemmInt8RequantAVX2(mRows, a, dst, pr, xb)
		return
	}
	n, k, kg := pr.n, pr.k, pr.kg
	panels, seeds := pr.panels, pr.seeds
	x0 := xb[:kg]
	x1 := xb[kg : 2*kg]
	m := 0
	for ; m+2 <= mRows; m += 2 {
		adj0 := swarExpandRow(a[m*k:m*k+k], x0)
		adj1 := swarExpandRow(a[(m+1)*k:(m+1)*k+k], x1)
		d0 := dst[m*n : m*n+n]
		d1 := dst[(m+1)*n : (m+1)*n+n]
		p, n0 := 0, 0
		for ; n0+gemmPanel <= n; p, n0 = p+1, n0+gemmPanel {
			pan := panels[p*kg : (p+1)*kg]
			m00, m01, m02, m03 := gemmRowPanel(x0, pan)
			m10, m11, m12, m13 := gemmRowPanel(x1, pan)
			s := (*[gemmPanel]int32)(seeds[n0 : n0+gemmPanel])
			requantQuad((*[gemmPanel]int8)(d0[n0:n0+gemmPanel]), s, adj0, m00, m01, m02, m03, pr)
			requantQuad((*[gemmPanel]int8)(d1[n0:n0+gemmPanel]), s, adj1, m10, m11, m12, m13, pr)
		}
		if n0 < n {
			pan := panels[p*kg : (p+1)*kg]
			m00, m01, m02, m03 := gemmRowPanel(x0, pan)
			m10, m11, m12, m13 := gemmRowPanel(x1, pan)
			requantTail(d0, n0,
				seeds[n0]+adj0+int32(m00), seeds[n0+1]+adj0+int32(m01),
				seeds[n0+2]+adj0+int32(m02), seeds[n0+3]+adj0+int32(m03), pr)
			requantTail(d1, n0,
				seeds[n0]+adj1+int32(m10), seeds[n0+1]+adj1+int32(m11),
				seeds[n0+2]+adj1+int32(m12), seeds[n0+3]+adj1+int32(m13), pr)
		}
	}
	if m < mRows {
		adj := swarExpandRow(a[m*k:m*k+k], x0)
		drow := dst[m*n : m*n+n]
		p, n0 := 0, 0
		for ; n0+gemmPanel <= n; p, n0 = p+1, n0+gemmPanel {
			pan := panels[p*kg : (p+1)*kg]
			m0, m1, m2, m3 := gemmRowPanel(x0, pan)
			s := (*[gemmPanel]int32)(seeds[n0 : n0+gemmPanel])
			requantQuad((*[gemmPanel]int8)(drow[n0:n0+gemmPanel]), s, adj, m0, m1, m2, m3, pr)
		}
		if n0 < n {
			pan := panels[p*kg : (p+1)*kg]
			m0, m1, m2, m3 := gemmRowPanel(x0, pan)
			requantTail(drow, n0,
				seeds[n0]+adj+int32(m0), seeds[n0+1]+adj+int32(m1),
				seeds[n0+2]+adj+int32(m2), seeds[n0+3]+adj+int32(m3), pr)
		}
	}
}

// gemmRowPanel sweeps one expanded activation row against one four-filter
// panel and returns the four mid totals. Keeping the tile one row wide holds
// the live set to four raw accumulators plus the streaming operands, which
// fits amd64's register file without spilling (the two-row tile spilled its
// eight raw accumulators to the stack every group).
//
// BCE shape: both operands advance by reslicing, and the outer condition
// `len(x) > 0 && len(pan) >= len(x)` is the invariant the prove pass needs
// to drop every check in the hot loop — x[:nb], pan[:nb], the range load
// and the &pb[i] group access all become check-free (callers always pass
// len(pan) == len(x) == kg; the condition is the proof, not a semantic
// branch). Enforced by make bce-check.
func gemmRowPanel(x []uint64, pan [][gemmPanel]uint64) (m0, m1, m2, m3 uint64) {
	for len(x) >= swarBlock && len(pan) >= swarBlock {
		xv := (*[swarBlock]uint64)(x[:swarBlock])
		pb := (*[swarBlock][gemmPanel]uint64)(pan[:swarBlock])
		var s0, s1, s2, s3 uint64
		for i := 0; i < swarBlock; i++ {
			xa := xv[i]
			q := &pb[i]
			s0 += xa * q[0]
			s1 += xa * q[1]
			s2 += xa * q[2]
			s3 += xa * q[3]
		}
		x, pan = x[swarBlock:], pan[swarBlock:]
		m0 += (s0 >> (2 * swarShift)) & swarMidMask
		m1 += (s1 >> (2 * swarShift)) & swarMidMask
		m2 += (s2 >> (2 * swarShift)) & swarMidMask
		m3 += (s3 >> (2 * swarShift)) & swarMidMask
	}
	if len(x) > 0 && len(pan) >= len(x) {
		xv, pb := x, pan[:len(x)]
		var s0, s1, s2, s3 uint64
		for i, xa := range xv {
			q := &pb[i]
			s0 += xa * q[0]
			s1 += xa * q[1]
			s2 += xa * q[2]
			s3 += xa * q[3]
		}
		m0 += (s0 >> (2 * swarShift)) & swarMidMask
		m1 += (s1 >> (2 * swarShift)) & swarMidMask
		m2 += (s2 >> (2 * swarShift)) & swarMidMask
		m3 += (s3 >> (2 * swarShift)) & swarMidMask
	}
	return
}

// gemmInt8RequantAVX2 is gemmInt8Requant over the AVX2 panel image: each
// activation row runs against each eight-filter panel in one dot8AVX2 call
// (VPMOVSXBW, VPMADDWD, wrapping VPADDD — exact, see ARCHITECTURE.md
// "Kernel tiers" Tier 4), and the eight wrapped sums plus the acc0 seeds go
// through the same requant epilogue as the SWAR path. A row whose depth is
// not a multiple of 16 is first staged into xb (pr.gemmScratchLen() words)
// so the kernel always reads whole blocks inside owned memory; the staged
// tail past k keeps whatever it held, which is exact because the padding
// weights it meets are zero.
func gemmInt8RequantAVX2(mRows int, a []int8, dst []int8, pr *linearPrep, xb []uint64) {
	n, k, kb := pr.n, pr.k, pr.kb
	var stage []int8
	if k%avx2Depth != 0 {
		// Reslicing first keeps the byte view inside xb: a short scratch
		// panics here instead of the staging copy writing past it.
		words := xb[:pr.gemmScratchLen()]
		stage = unsafe.Slice((*int8)(unsafe.Pointer(&words[0])), 8*len(words))
	}
	var sums [avx2Panel]int32
	var tail [avx2Panel]int8
	for m := 0; m < mRows; m++ {
		row := a[m*k : m*k+k]
		if stage != nil {
			copy(stage, row)
			row = stage
		}
		drow := dst[m*n : m*n+n]
		p, n0 := 0, 0
		for ; n0+avx2Panel <= n; p, n0 = p+1, n0+avx2Panel {
			dot8AVX2(&row[0], &pr.wq[p*kb*avx2Panel*avx2Depth], kb, &sums)
			requantOct((*[avx2Panel]int8)(drow[n0:n0+avx2Panel]), (*[avx2Panel]int32)(pr.seeds[n0:n0+avx2Panel]), &sums, pr)
		}
		if n0 < n {
			dot8AVX2(&row[0], &pr.wq[p*kb*avx2Panel*avx2Depth], kb, &sums)
			requantOct(&tail, (*[avx2Panel]int32)(pr.seeds[n0:n0+avx2Panel]), &sums, pr)
			copy(drow[n0:], tail[:])
		}
	}
}

// requantOct rescales, offsets, clamps and stores the eight outputs of one
// AVX2 panel. Like requantQuad, the array-pointer operands keep every
// access provably in range; the caller routes a partial panel through a
// full-width temporary.
func requantOct(d *[avx2Panel]int8, s, acc *[avx2Panel]int32, pr *linearPrep) {
	for j := range d {
		d[j] = int8(clampInt32(pr.requantOne(s[j]+acc[j])+pr.outZP, pr.lo, pr.hi))
	}
}

// requantQuad rescales, offsets, clamps and stores one full four-filter quad
// of one output row. The array-pointer operands make every load and store
// provably in range whether or not the call inlines; the caller peels partial
// quads off to requantTail.
func requantQuad(d *[gemmPanel]int8, s *[gemmPanel]int32, adj int32, m0, m1, m2, m3 uint64, pr *linearPrep) {
	d[0] = int8(clampInt32(pr.requantOne(s[0]+adj+int32(m0))+pr.outZP, pr.lo, pr.hi))
	d[1] = int8(clampInt32(pr.requantOne(s[1]+adj+int32(m1))+pr.outZP, pr.lo, pr.hi))
	d[2] = int8(clampInt32(pr.requantOne(s[2]+adj+int32(m2))+pr.outZP, pr.lo, pr.hi))
	d[3] = int8(clampInt32(pr.requantOne(s[3]+adj+int32(m3))+pr.outZP, pr.lo, pr.hi))
}

// requantTail stores the final partial quad of one output row, skipping the
// panel's zero-padding lanes past the true output-channel count. Its guarded
// stores are data-dependent by nature (n mod 4), so it stays off the
// bce-check clean list; it runs at most once per row.
func requantTail(drow []int8, n0 int, c0, c1, c2, c3 int32, pr *linearPrep) {
	lim := len(drow) - n0
	drow = drow[n0:]
	drow[0] = int8(clampInt32(pr.requantOne(c0)+pr.outZP, pr.lo, pr.hi))
	if lim > 1 {
		drow[1] = int8(clampInt32(pr.requantOne(c1)+pr.outZP, pr.lo, pr.hi))
	}
	if lim > 2 {
		drow[2] = int8(clampInt32(pr.requantOne(c2)+pr.outZP, pr.lo, pr.hi))
	}
	if lim > 3 {
		drow[3] = int8(clampInt32(pr.requantOne(c3)+pr.outZP, pr.lo, pr.hi))
	}
}

// gemmFloat computes dst[m*n] = act(bias[n] + A[m]·B[n]). Each accumulator
// adds its K products strictly in order, so results match the scalar
// reference bit-for-bit (padded positions contribute exact zeros); the
// 4-row blocking over B only shares the A row, it never reassociates sums.
func gemmFloat(mRows, nRows, k int, a, b, bias []float32, act Activation, dst []float32) {
	for m := 0; m < mRows; m++ {
		ar := a[m*k : (m+1)*k]
		drow := dst[m*nRows : (m+1)*nRows]
		n := 0
		for ; n <= nRows-4; n += 4 {
			b0 := b[n*k : (n+1)*k]
			b1 := b[(n+1)*k : (n+2)*k]
			b2 := b[(n+2)*k : (n+3)*k]
			b3 := b[(n+3)*k : (n+4)*k]
			acc0, acc1, acc2, acc3 := bias[n], bias[n+1], bias[n+2], bias[n+3]
			for i, av := range ar {
				acc0 += av * b0[i]
				acc1 += av * b1[i]
				acc2 += av * b2[i]
				acc3 += av * b3[i]
			}
			drow[n] = activationApplyFloat(act, acc0)
			drow[n+1] = activationApplyFloat(act, acc1)
			drow[n+2] = activationApplyFloat(act, acc2)
			drow[n+3] = activationApplyFloat(act, acc3)
		}
		for ; n < nRows; n++ {
			br := b[n*k : (n+1)*k]
			acc := bias[n]
			for i, av := range ar {
				acc += av * br[i]
			}
			drow[n] = activationApplyFloat(act, acc)
		}
	}
}

// convFloatGemm runs a float32 convolution: each batch is im2col-packed
// into col (g.colLen() values) and multiplied with the weights.
func convFloatGemm(in, w, bias, out *Tensor, g convGeom, act Activation, col []float32) {
	for b := 0; b < g.batches; b++ {
		im2col(col[:g.colLen()], in.F32, g, b)
		gemmFloat(g.M, g.outC, g.K, col, w.F32, bias.F32, act, out.F32[b*g.M*g.outC:(b+1)*g.M*g.outC])
	}
}

// depthwisePrep is the plan-time state of an int8 DepthwiseConv2D: geometry
// plus per-channel zero-point corrections (the filter layout is [1, kH, kW,
// outC], so the weight sums stride by outC rather than being row-major).
// When the input has a single channel the reduction axis is contiguous in
// the source, so the interior additionally packs each output channel's taps
// into SWAR weight words (kH rows of swarGroups(kW) reversed-lane groups)
// with the −128·Σw half of the bias correction folded into swSeeds; the
// win scales with the depth multiplier, which shares one packed-activation
// expansion across all of a pixel's output channels. Strided multi-channel
// geometries keep the scalar interior — SWAR needs contiguous bytes.
type depthwisePrep struct {
	g   convGeom
	lp  linearPrep
	mul int // depth multiplier
	// SWAR interior state (inC == 1 only; nil otherwise).
	kgW     int      // packed groups per kernel row
	wPack64 []uint64 // [oc][ky][g] packed taps, oc-major
	swSeeds []int32  // acc0[oc] − 128·Σw[oc]
	xwin    []uint64 // window expansion scratch, kH·kgW words (serial Invoke only)
}

// prepDepthwiseInt8 builds the prep of a DepthwiseConv2D node whose
// geometry is g (windowGeom).
func prepDepthwiseInt8(in, w, bias, out *Tensor, g convGeom, act Activation) *depthwisePrep {
	mult, _ := requantMultiplier(in, w, out)
	lo, hi := activationRangeQuantized(act, *out.Quant)
	dp := &depthwisePrep{
		g:   g,
		mul: g.outC / g.inC,
		lp: linearPrep{
			mult:  mult,
			outZP: out.Quant.ZeroPoint,
			lo:    lo,
			hi:    hi,
			inZP:  in.Quant.ZeroPoint,
			acc0:  make([]int32, g.outC),
		},
	}
	for oc := 0; oc < g.outC; oc++ {
		var sum int32
		for i := 0; i < g.kH*g.kW; i++ {
			sum += int32(w.I8[i*g.outC+oc])
		}
		dp.lp.acc0[oc] = bias.I32[oc] - dp.lp.inZP*sum
	}
	if g.inC == 1 {
		dp.kgW = swarGroups(g.kW)
		dp.wPack64 = make([]uint64, g.outC*g.kH*dp.kgW)
		dp.swSeeds = make([]int32, g.outC)
		dp.xwin = make([]uint64, g.kH*dp.kgW)
		row := make([]int8, g.kW)
		for oc := 0; oc < g.outC; oc++ {
			var sum int32
			for ky := 0; ky < g.kH; ky++ {
				for kx := 0; kx < g.kW; kx++ {
					row[kx] = w.I8[(ky*g.kW+kx)*g.outC+oc]
				}
				sum += swarSum(row)
				swarPackReversed(row, dp.wPack64[(oc*g.kH+ky)*dp.kgW:(oc*g.kH+ky+1)*dp.kgW])
			}
			dp.swSeeds[oc] = dp.lp.acc0[oc] - swarBias*sum
		}
	}
	return dp
}

// depthwiseInt8Opt evaluates an int8 DepthwiseConv2D with the padding-free
// interior split from the border: interior windows run branchless strided
// MAC loops seeded with the precomputed corrections; border windows fall
// back to reference-style skip-and-subtract accumulation (bit-identical,
// both equal the true sum modulo 2^32).
func depthwiseInt8Opt(in, w, bias, out *Tensor, dp *depthwisePrep) {
	g, lp := dp.g, &dp.lp
	src, flt, dst, b32 := in.I8, w.I8, out.I8, bias.I32
	for b := 0; b < g.batches; b++ {
		for oy := 0; oy < g.outH; oy++ {
			iy0 := oy*g.strideH - g.padT
			rowInterior := iy0 >= 0 && iy0+g.kH <= g.inH
			for ox := 0; ox < g.outW; ox++ {
				ix0 := ox*g.strideW - g.padL
				dBase := ((b*g.outH+oy)*g.outW + ox) * g.outC
				if rowInterior && ix0 >= 0 && ix0+g.kW <= g.inW {
					if dp.wPack64 != nil {
						// Contiguous reduction axis (inC == 1): expand the
						// window's source rows into SWAR words once, then
						// sweep every output channel's packed taps — three
						// MACs per multiply, expansion shared across the
						// depth multiplier.
						var adj int32
						for ky := 0; ky < g.kH; ky++ {
							sRow := (b*g.inH+iy0+ky)*g.inW + ix0
							adj += swarExpandRow(src[sRow:sRow+g.kW], dp.xwin[ky*dp.kgW:(ky+1)*dp.kgW])
						}
						for oc := 0; oc < g.outC; oc++ {
							pan := dp.wPack64[oc*g.kH*dp.kgW : (oc+1)*g.kH*dp.kgW]
							xw := dp.xwin
							var s uint64
							// The dual loop condition proves both streams
							// in range (they are the same length).
							for i := 0; i < len(pan) && i < len(xw); i++ {
								s += (xw[i] * pan[i] >> (2 * swarShift)) & swarMidMask
							}
							acc := dp.swSeeds[oc] + adj + int32(s)
							dst[dBase+oc] = int8(clampInt32(lp.mult.Apply(acc)+lp.outZP, lp.lo, lp.hi))
						}
						continue
					}
					for ic := 0; ic < g.inC; ic++ {
						for m := 0; m < dp.mul; m++ {
							oc := ic*dp.mul + m
							acc := lp.acc0[oc]
							for ky := 0; ky < g.kH; ky++ {
								sRow := ((b*g.inH+iy0+ky)*g.inW+ix0)*g.inC + ic
								wRow := ky*g.kW*g.outC + oc
								for kx := 0; kx < g.kW; kx++ {
									acc += int32(src[sRow+kx*g.inC]) * int32(flt[wRow+kx*g.outC])
								}
							}
							dst[dBase+oc] = int8(clampInt32(lp.mult.Apply(acc)+lp.outZP, lp.lo, lp.hi))
						}
					}
					continue
				}
				for ic := 0; ic < g.inC; ic++ {
					for m := 0; m < dp.mul; m++ {
						oc := ic*dp.mul + m
						acc := b32[oc]
						for ky := 0; ky < g.kH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= g.inH {
								continue
							}
							for kx := 0; kx < g.kW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= g.inW {
									continue
								}
								sIdx := ((b*g.inH+iy)*g.inW+ix)*g.inC + ic
								wIdx := (ky*g.kW+kx)*g.outC + oc
								acc += (int32(src[sIdx]) - lp.inZP) * int32(flt[wIdx])
							}
						}
						dst[dBase+oc] = int8(clampInt32(lp.mult.Apply(acc)+lp.outZP, lp.lo, lp.hi))
					}
				}
			}
		}
	}
}
