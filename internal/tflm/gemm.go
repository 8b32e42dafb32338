package tflm

import (
	"unsafe"

	"repro/internal/cpufeat"
)

// Optimized linear-algebra hot path: the int8 Conv2D and FullyConnected are
// one implicit GEMM. Every output position reads its receptive field in
// place through a prep-time offset table of 8-byte halves: a Conv2D window
// of its padded input image (convPrep.run), a FullyConnected input row of
// its tensor. Nothing is packed per Invoke beyond the copy of the conv
// input's interior rows into the image, whose border prep filled with the
// input zero point once, so the MAC loops carry no padding logic and no
// zero-point subtractions. The MAC kernel is picked from the hardware at
// prep time (useAVX2): an AVX2 assembly kernel that also requantizes in
// registers on amd64 hosts that have it, the portable SWAR kernel
// everywhere else. Per-filter zero-point corrections
// acc0[oc] = bias[oc] - inZP·Σw[oc] are precomputed once, which is exact
// because int32 accumulation is associative modulo 2^32.
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
	// K is the patch depth kH·kW·inC; M is outH·outW patches per batch.
	K, M int
}

// colLen returns the float im2col scratch length for one batch.
func (g convGeom) colLen() int { return g.M * g.K }

// requantConsts is the requantization epilogue's constant block: the
// decomposition of QuantizedMultiplier.Apply into acc<<lsh, a
// saturating-rounding-doubling-high multiply by mult, and a rounding divide
// by 2^rsh with its mask and threshold, then the output zero point and the
// activation clamp. The AVX2 kernel reads it through go_asm.h offsets.
type requantConsts struct {
	lsh, rsh  uint32
	mult      int32
	mask, thr int32
	outZP     int32
	lo, hi    int32
}

// linearPrep carries the plan-time constants of one int8 linear op: the
// requantization multiplier, the clamp range, the per-output-channel
// accumulator seeds with bias and zero-point correction folded in, the
// offset table of the implicit GEMM and the weight matrix repacked into the
// panel image of the selected kernel.
type linearPrep struct {
	mult  QuantizedMultiplier
	inZP  int32
	acc0  []int32
	n, k  int
	rq    requantConsts
	seeds []int32
	// offs holds the source offset of each 8-byte half of the reduction,
	// relative to a position's origin (implicitLayout); span is how many
	// bytes a position may read from its origin.
	offs []int32
	span int
	// Prep builds exactly one weight image over the 8·len(offs) depths of
	// the halves, for the kernel useAVX2 selects:
	//   - AVX2 (wq != nil): kb = len(offs)/2 depth blocks of two halves;
	//     wq holds ceil(n/8) panels of kb blocks of eight filters' 16 int16
	//     weights (packPanelsAVX2), zero-padded past n.
	//   - SWAR (wq == nil): kg = ceil(8·len(offs)/3) packed groups; panels
	//     holds ceil(n/4) panels of kg four-lane groups of reversed-lane
	//     weight words (panel p, group g, lane j packs filter 4p+j's depths
	//     3g..3g+2 per swar.go) — the [gemmPanel]uint64 element type keeps
	//     one group's four words a single provably-in-range access for the
	//     micro-kernel.
	// seeds is the kernel's accumulator seed padded to its panel grid so
	// the epilogue indexes whole panels unguarded: acc0 itself for AVX2,
	// the SWAR-corrected acc0 − 128·Σw for SWAR.
	kg, kb int
	panels [][gemmPanel]uint64
	wq     []int16
}

// requantOne is QuantizedMultiplier.Apply with the shift decomposition and
// rounding constants precomputed in pr.rq, plus the output zero point and
// the clamp — bit-identical by construction. SQRDMULH's saturation corner
// (both operands MinInt32) cannot occur: the multiplier is never negative.
// Its nudge and truncating division fold into one floor: trunc((ab+2^30)/
// 2^31) for ab ≥ 0, and trunc((ab+1−2^30)/2^31) = floor((ab+2^30)/2^31)
// for ab < 0 (the truncation of a negative quotient is the ceiling, and
// ceil(s/2^31) = floor((s+2^31−1)/2^31)).
func (pr *linearPrep) requantOne(acc int32) int8 {
	q := &pr.rq
	x := int32(uint32(acc) << q.lsh) // TFLite shifts without saturation here
	v := int32((int64(x)*int64(q.mult) + 1<<30) >> 31)
	// Branch-free rounding divide: the threshold is one higher for negative
	// values; add 1 when the remainder exceeds it.
	thr := q.thr - v>>31
	rem := v & q.mask
	v = v>>q.rsh - (thr-rem)>>31
	return int8(clampInt32(v+q.outZP, q.lo, q.hi))
}

// requantFor derives the epilogue constants of multiplier m, output zero
// point outZP and clamp range [lo, hi].
func requantFor(m QuantizedMultiplier, outZP, lo, hi int32) requantConsts {
	q := requantConsts{mult: m.Multiplier, outZP: outZP, lo: lo, hi: hi}
	if m.Shift > 0 {
		q.lsh = uint32(m.Shift)
	} else {
		q.rsh = uint32(-m.Shift)
	}
	q.mask = int32(1<<q.rsh) - 1
	q.thr = q.mask >> 1
	return q
}

// gemmPanel is the output-channel blocking factor of the SWAR weight
// layout and micro-kernel.
const gemmPanel = 4

// avx2Panel and avx2Depth are the filter and depth blocking of the AVX2
// weight image: gemmRowsAVX2 keeps one ymm accumulator per filter of a
// panel and consumes 16 int8 activations (two halves, one VPMOVSXBW) per
// depth block.
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

// implicitLayout lays the reduction of a kernel out as 8-byte halves. The
// kernel has kRows rows of rowLen contiguous source bytes, rowStride bytes
// apart (a Conv2D window: kH rows of kW·inC; a FullyConnected row: one row
// of k). Row r is covered by ceil(rowLen/8) halves at source offsets
// r·rowStride + 0, 8, 16, …, except that the last half of a row longer
// than 8 bytes starts at rowLen−8, so it ends with the row instead of
// reading past it. The halves are paired into 16-depth blocks; an odd count
// gets one more half at offset 0. wp is the n×8·len(offs) weight matrix in
// half order: lane t of half h carries the weight of the source byte it
// reads, or zero where that byte lies past its row, was already covered by
// the row's previous half, or belongs to the pairing half. Every byte of
// the reduction is therefore counted once and every other byte read meets
// a zero weight. span is the bytes a position may read from its origin;
// only a row shorter than 8 bytes reads past its end, by at most 7.
func implicitLayout(w []int8, n, kRows, rowLen, rowStride int) (offs []int32, span int, wp []int8) {
	per := (rowLen + 7) / 8
	halves := kRows * per
	halves += halves % 2
	offs = make([]int32, halves)
	wp = make([]int8, n*8*halves)
	k := kRows * rowLen
	for r := 0; r < kRows; r++ {
		for i := 0; i < per; i++ {
			h, c := r*per+i, 8*i
			if c+8 > rowLen && rowLen > 8 {
				c = rowLen - 8
			}
			offs[h] = int32(r*rowStride + c)
			span = max(span, r*rowStride+c+8)
			for t := 0; t < 8; t++ {
				if col := c + t; col >= 8*i && col < rowLen {
					for o := 0; o < n; o++ {
						wp[o*8*halves+8*h+t] = w[o*k+r*rowLen+col]
					}
				}
			}
		}
	}
	return offs, span, wp
}

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

// packPanelsAVX2 repacks an n×k row-major weight matrix (k a multiple of
// 16) into the AVX2 panel image: filter o's depth i sits at
// wq[((o/8·kb + i/16)·8 + o%8)·16 + i%16], so one panel's eight filters of
// one 16-depth block are 128 contiguous int16 weights — the 256 bytes one
// gemmRowsAVX2 block iteration reads. Padding filters (≥ n) hold zero
// weights, so the tail adds exact zeros.
func packPanelsAVX2(w []int8, n, k int) []int16 {
	kb := k / avx2Depth
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

// prepLinearInt8 builds the prep for a weight matrix laid out as n rows of
// length kRows·rowLen (Conv2D OHWI filters flattened, or FullyConnected
// [out, in]) whose reduction reads kRows source rows of rowLen bytes,
// rowStride apart (implicitLayout), including the panel image of the
// weights for the selected kernel. The tensors passed Validate
// (checkLinear), so the multiplier is representable.
func prepLinearInt8(in, w, bias, out *Tensor, act Activation, n, kRows, rowLen, rowStride int) *linearPrep {
	mult, _ := requantMultiplier(in, w, out)
	lo, hi := activationRangeQuantized(act, *out.Quant)
	k := kRows * rowLen
	pr := &linearPrep{
		mult: mult,
		inZP: in.Quant.ZeroPoint,
		acc0: make([]int32, n),
		n:    n,
		k:    k,
		rq:   requantFor(mult, out.Quant.ZeroPoint, lo, hi),
	}
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
	var wp []int8
	pr.offs, pr.span, wp = implicitLayout(w.I8, n, kRows, rowLen, rowStride)
	if useAVX2 {
		pr.kb = len(pr.offs) / 2
		pr.wq = packPanelsAVX2(wp, n, 8*len(pr.offs))
	} else {
		pr.kg = swarGroups(8 * len(pr.offs))
		pr.panels = packPanels(wp, n, 8*len(pr.offs))
	}
	return pr
}

// gemmScratchLen returns the scratch (in uint64 words) one gemmRows call
// needs: none for AVX2; for SWAR one gathered patch of len(offs) words
// plus two packed rows of kg groups.
func (pr *linearPrep) gemmScratchLen() int {
	if pr.wq != nil {
		return 0
	}
	return len(pr.offs) + 2*pr.kg
}

// gemmRows runs count output positions of the implicit GEMM: position i
// reads its reduction through pr.offs from src at origin base + i·stride
// and writes its n requantized outputs to dst[i·n:(i+1)·n]. xb is
// caller-owned scratch of pr.gemmScratchLen() words. The range check runs
// once per call and covers every read of every position, which is what
// lets the AVX2 kernel load without checks.
func (pr *linearPrep) gemmRows(src []int8, base, stride, count int, dst []int8, xb []uint64) {
	if count <= 0 {
		return
	}
	if base < 0 || stride < 0 || base+(count-1)*stride+pr.span > len(src) || count*pr.n > len(dst) {
		panic("tflm: implicit GEMM window out of range")
	}
	if pr.wq != nil {
		gemmRowsAVX2(&src[base], stride, count, &dst[0], pr.n, &pr.wq[0], &pr.offs[0], pr.kb, &pr.seeds[0], &pr.rq)
		return
	}
	gemmRowsSWAR(src[base:], stride, count, dst, pr, xb)
}

// fcRows runs a FullyConnected over rows input rows of a, in place. A row
// of at least 8 bytes never reads past its end (implicitLayout); a shorter
// one reads up to 7 bytes into the next row, harmlessly, except at the end
// of a, so the trailing rows whose reads would leave a run from a copy.
func (pr *linearPrep) fcRows(a, dst []int8, rows int, xb []uint64) {
	k, safe := pr.k, rows
	if pr.span > k {
		// Fewer than 8 bytes of a remain past the last safe row, so its
		// successors and their reads fit a 16-byte copy.
		safe = 0
		if rows*k >= pr.span {
			safe = (rows*k-pr.span)/k + 1
		}
		var tail [16]int8
		copy(tail[:], a[safe*k:rows*k])
		pr.gemmRows(tail[:], 0, k, rows-safe, dst[safe*pr.n:], xb)
	}
	pr.gemmRows(a, 0, k, safe, dst, xb)
}

// convPrep is the plan-time state of an int8 Conv2D: the geometry, the
// linear prep over the padded input image, and that image. The image holds
// one utterance (all batches), each batch imgRows × rowStride bytes: the
// input's rows sit at row padT, column padL·inC, and every other byte —
// the padding border and 8 bytes of read slack past the end — holds the
// input zero point from prep on. A window of the image is therefore a
// whole patch, padding included, at a fixed stride.
type convPrep struct {
	g         convGeom
	pr        *linearPrep
	rowStride int // bytes per image row: padded width · inC
	imgLen    int // bytes per batch image
	img       []int8
}

// paddedDims returns the rows and columns of a conv's padded input image:
// tall and wide enough for the input at (padT, padL) and for every window,
// including VALID windows that run past the input.
func (g convGeom) paddedDims() (rows, cols int) {
	return max(g.padT+g.inH, (g.outH-1)*g.strideH+g.kH), max(g.padL+g.inW, (g.outW-1)*g.strideW+g.kW)
}

// prepConvInt8 builds the prep of a Conv2D node whose geometry is g
// (windowGeom).
func prepConvInt8(in, w, bias, out *Tensor, g convGeom, act Activation) *convPrep {
	rows, cols := g.paddedDims()
	cp := &convPrep{g: g, rowStride: cols * g.inC}
	cp.imgLen = rows * cp.rowStride
	cp.pr = prepLinearInt8(in, w, bias, out, act, g.outC, g.kH, g.kW*g.inC, cp.rowStride)
	cp.img = make([]int8, g.batches*cp.imgLen+8)
	fillSlice(cp.img, int8(cp.pr.inZP))
	return cp
}

// run evaluates the conv over one utterance: it copies the interior rows of
// in into the padded image, then runs each output row as one gemmRows call
// over the windows of that row.
func (cp *convPrep) run(in, out []int8, xb []uint64) {
	g, pr, img := &cp.g, cp.pr, cp.img
	rowLen := g.inW * g.inC
	inLen, outRow := g.inH*rowLen, g.outW*pr.n
	for b := 0; b < g.batches; b++ {
		base := b * cp.imgLen
		padCopy(img[base+g.padT*cp.rowStride+g.padL*g.inC:], in[b*inLen:(b+1)*inLen], rowLen, cp.rowStride)
		for oy := 0; oy < g.outH; oy++ {
			o := (b*g.outH + oy) * outRow
			pr.gemmRows(img, base+oy*g.strideH*cp.rowStride, g.strideW*g.inC, g.outW, out[o:o+outRow], xb)
		}
	}
}

// padCopy copies src, rows of n bytes, into dst at rows stride bytes apart:
// the interior of a padded image. The reslice walk keeps every access
// provably in range (enforced by make bce-check); the last row may end
// less than stride bytes before the end of dst.
func padCopy(dst, src []int8, n, stride int) {
	for n > 0 && len(src) >= n && len(dst) >= n {
		copy(dst[:n], src[:n])
		src = src[n:]
		if uint(stride) > uint(len(dst)) {
			return
		}
		dst = dst[stride:]
	}
}

// fillSlice is the one memclr-style prefill helper: the float im2col
// packer, the padded conv images and the test scratch all flow through it,
// so the idiom lives (and gets tuned) in exactly one place.
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

// gemmRowsSWAR is gemmRows over the SWAR panels. Its micro-kernel runs two
// positions against one four-filter panel, three depth positions per step:
// each position's halves are first gathered into one patch row and
// expanded once into packed 21-bit-lane words (x0, x1, shared across every
// panel), then each 64-bit multiply against a panel word retires three MACs
// into one of eight raw accumulators, whose mid lanes are folded out once
// per swarBlock groups — see swar.go for the lane layout and the
// carry-freeness proof. Bytes a half reads past its row meet zero weights,
// and the bias correction is exact for them too: (u−128)·0 = u·128 − 128·u.
// Requantization and activation clamping are fused into the output write.
// All intermediate sums are exact integers, so the final int32 truncation
// matches the scalar reference's wrapped accumulation bit for bit.
func gemmRowsSWAR(src []int8, stride, count int, dst []int8, pr *linearPrep, xb []uint64) {
	n, kg, h := pr.n, pr.kg, len(pr.offs)
	words := xb[:h+2*kg]
	row := unsafe.Slice((*int8)(unsafe.Pointer(&words[0])), 8*h)
	x0, x1 := words[h:h+kg], words[h+kg:]
	panels, seeds := pr.panels, pr.seeds
	i := 0
	for ; i+2 <= count; i += 2 {
		gatherPatch(row, src[i*stride:], pr.offs)
		adj0 := swarExpandRow(row, x0)
		gatherPatch(row, src[(i+1)*stride:], pr.offs)
		adj1 := swarExpandRow(row, x1)
		d0 := dst[i*n : i*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
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
	if i < count {
		gatherPatch(row, src[i*stride:], pr.offs)
		adj := swarExpandRow(row, x0)
		drow := dst[i*n : i*n+n]
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

// gatherPatch copies one position's halves into row, in table order:
// row[8h:8h+8] = win[offs[h]:offs[h]+8]. The loads are data-dependent (the
// offset table), so their checks stay; gemmRows has already checked that
// every one is in range.
func gatherPatch(row, win []int8, offs []int32) {
	for h, o := range offs {
		*(*[8]int8)(row[8*h:]) = *(*[8]int8)(win[o:])
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

// requantQuad rescales, offsets, clamps and stores one full four-filter quad
// of one output row. The array-pointer operands make every load and store
// provably in range whether or not the call inlines; the caller peels partial
// quads off to requantTail.
func requantQuad(d *[gemmPanel]int8, s *[gemmPanel]int32, adj int32, m0, m1, m2, m3 uint64, pr *linearPrep) {
	d[0] = pr.requantOne(s[0] + adj + int32(m0))
	d[1] = pr.requantOne(s[1] + adj + int32(m1))
	d[2] = pr.requantOne(s[2] + adj + int32(m2))
	d[3] = pr.requantOne(s[3] + adj + int32(m3))
}

// requantTail stores the final partial quad of one output row, skipping the
// panel's zero-padding lanes past the true output-channel count. Its guarded
// stores are data-dependent by nature (n mod 4), so it stays off the
// bce-check clean list; it runs at most once per row.
func requantTail(drow []int8, n0 int, c0, c1, c2, c3 int32, pr *linearPrep) {
	lim := len(drow) - n0
	drow = drow[n0:]
	drow[0] = pr.requantOne(c0)
	if lim > 1 {
		drow[1] = pr.requantOne(c1)
	}
	if lim > 2 {
		drow[2] = pr.requantOne(c2)
	}
	if lim > 3 {
		drow[3] = pr.requantOne(c3)
	}
}

// im2col packs the receptive fields of batch b of a float32 convolution
// into col, one patch per GEMM row in (ky, kx, ic) order. Out-of-bounds
// positions are filled with zero. Interior rows reduce to contiguous copies.
// (The int8 convolution instead reads windows of a padded image in place,
// convPrep.run.)
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
			mult: mult,
			rq:   requantFor(mult, out.Quant.ZeroPoint, lo, hi),
			inZP: in.Quant.ZeroPoint,
			acc0: make([]int32, g.outC),
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
							dst[dBase+oc] = lp.requantOne(acc)
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
							dst[dBase+oc] = lp.requantOne(acc)
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
						dst[dBase+oc] = lp.requantOne(acc)
					}
				}
			}
		}
	}
}
