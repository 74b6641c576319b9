package fingerprint

import (
	"math"
	"math/bits"
)

// This file implements the quantized radio-map layout and its distance
// kernel (DESIGN.md §13). The exact []float64 row-major map stays the
// reference; alongside it the DB keeps the per-AP RSS means quantized
// to int8 in a blocked structure-of-arrays layout:
//
//	block b covers locations b*qBlock+1 .. b*qBlock+qBlock (1-based);
//	within a block, AP a's 64 int8 lanes are contiguous —
//	codes[(b*numAPs+a)*qBlock + j] is AP a of location b*qBlock+j+1.
//
// One AP dimension of one block is therefore exactly one 64-byte cache
// line, and the kernel streams block-by-block accumulating int32
// squared code differences — no float math, no per-location slice
// headers, and cold blocks (those outside a candidate mask) are never
// touched.
//
// Quantization never changes results. The kernel is a prefilter: from
// the accumulated code distance it derives conservative lower and upper
// bounds on the exact squared Euclidean distance, keeps a bounded top-k
// of upper bounds, shortlists every location whose lower bound could
// still make the top-k, and rescores the shortlist exactly over the
// float64 reference rows with the same (dissimilarity, location)
// selection the exact scan uses. The result is value-identical to
// KNearestAppend, ties included. When a query RSS component falls
// outside the quantization range (so its code would saturate and the
// error bound would break), the quantized path refuses and the caller
// falls back to the exact scan.

// qBlock is the number of locations per block: 64 int8 lanes, one cache
// line per AP dimension. It intentionally equals the width of a uint64
// so one mask word covers exactly one block.
const qBlock = 64

// qPad widens the quantization range beyond the radio map's own
// [min, max] RSS span (in dBm) so that live queries — which carry
// measurement noise the averaged map rows do not — still quantize
// without saturating.
const qPad = 6.0

// quantMap is the quantized blocked-SoA companion of a DB's flat map.
type quantMap struct {
	n       int // locations
	w       int // APs
	nBlocks int
	mid     float64 // RSS mapped to code 0
	step    float64 // dBm per code unit
	inv     float64 // 1/step
	codes   []int8
}

// buildQuant quantizes the flat radio map, or returns nil when the map
// cannot be quantized (no locations, no finite span). Only Euclidean
// DBs build one — the kernel bounds squared Euclidean distance.
func buildQuant(flat []float64, n, w int) *quantMap {
	if n == 0 || w == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	lo, hi = lo-qPad, hi+qPad
	qm := &quantMap{
		n:       n,
		w:       w,
		nBlocks: (n + qBlock - 1) / qBlock,
		mid:     (lo + hi) / 2,
		step:    (hi - lo) / 254,
	}
	qm.inv = 1 / qm.step
	qm.codes = make([]int8, qm.nBlocks*w*qBlock)
	for i := 0; i < n; i++ {
		b, j := i/qBlock, i%qBlock
		row := flat[i*w : (i+1)*w]
		for a, v := range row {
			qm.codes[(b*w+a)*qBlock+j] = int8(math.Round((v - qm.mid) * qm.inv))
		}
	}
	return qm
}

// Query owns the reusable state of quantized and reachability-gated
// radio-map scans: the candidate mask (one bit per location, one word
// per block) and the kernel scratch. One Query per serving session; a
// Query is not safe for concurrent use, but distinct Queries may scan
// one shared DB concurrently.
type Query struct {
	n     int
	words []uint64 // candidate bitmap; word b covers block b
	//moloc:reuse
	touched []int32 // indices of nonzero words, unsorted until a scan
	count   int     // masked locations

	// Kernel scratch, sized lazily on first use.
	//moloc:reuse
	qcode []int32 // quantized query, one code per AP
	//moloc:reuse
	acc []int32 // per-lane squared code distance
	//moloc:reuse
	short []int32 // shortlist of 0-based location indices
	//moloc:reuse
	ub []float64 // bounded top-k of distance upper bounds
}

// NewQuery sizes a query for a source with numLocs locations.
func NewQuery(numLocs int) *Query {
	if numLocs < 0 {
		numLocs = 0
	}
	return &Query{
		n:     numLocs,
		words: make([]uint64, (numLocs+qBlock-1)/qBlock),
	}
}

// NumLocs returns the location count the query was sized for.
func (q *Query) NumLocs() int { return q.n }

// ResetMask clears the candidate mask in O(marked blocks).
func (q *Query) ResetMask() {
	for _, b := range q.touched {
		q.words[b] = 0
	}
	q.touched = q.touched[:0]
	q.count = 0
}

// MaskLoc marks a 1-based location as a scan candidate. Out-of-range
// locations are ignored; re-marking a location is a no-op.
func (q *Query) MaskLoc(loc int) {
	if loc < 1 || loc > q.n {
		return
	}
	i := loc - 1
	b, bit := i/qBlock, uint(i%qBlock)
	w := q.words[b]
	if w&(1<<bit) != 0 {
		return
	}
	if w == 0 {
		q.touched = append(q.touched, int32(b))
	}
	q.words[b] = w | 1<<bit
	q.count++
}

// MaskCount returns the number of masked locations.
func (q *Query) MaskCount() int { return q.count }

// Masked reports whether a 1-based location is in the mask.
func (q *Query) Masked(loc int) bool {
	if loc < 1 || loc > q.n {
		return false
	}
	i := loc - 1
	return q.words[i/qBlock]&(1<<uint(i%qBlock)) != 0
}

// scanBlocks returns how many blocks a scan over n locations visits:
// every block when q is nil, else the mask's marked blocks, sorted
// ascending so lanes come in location order (the selection tie-break
// depends on it). Insertion sort: a gate mask touches a few blocks.
func scanBlocks(q *Query, n int) int {
	if q == nil {
		return (n + qBlock - 1) / qBlock
	}
	t := q.touched
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j] < t[j-1]; j-- {
			t[j], t[j-1] = t[j-1], t[j]
		}
	}
	return len(t)
}

// scanLanes returns the bi-th visited block and its lane word: the mask
// word, or every location of the block when q is nil, in either case
// clipped to the n locations the source holds.
func scanLanes(q *Query, bi, n int) (b int, word uint64) {
	b, word = bi, ^uint64(0)
	if q != nil {
		b = int(q.touched[bi])
		word = q.words[b]
	}
	if rest := n - b*qBlock; rest < qBlock {
		if rest <= 0 {
			return b, 0
		}
		word &= 1<<uint(rest) - 1
	}
	return b, word
}

// MaskedCandidateAppender extends CandidateAppender with
// reachability-gated queries: CandidatesMaskedAppend restricts the
// candidate scan to the locations marked in q, so a motion prior can
// prune the scan before any fingerprint distance is computed (SRL-KNN
// style). Both built-in sources implement it.
type MaskedCandidateAppender interface {
	CandidateAppender
	// CandidatesMaskedAppend fills dst with the (up to) k most plausible
	// masked locations for f — value-identical to filtering the full
	// Candidates scan to the mask — with probabilities normalized over
	// the masked candidates. ok is false (and dst is not filled) when
	// the mask is empty or nil; callers then fall back to the full scan.
	CandidatesMaskedAppend(dst []Candidate, f Fingerprint, k int, q *Query) (out []Candidate, ok bool)
}

var (
	_ MaskedCandidateAppender = (*DB)(nil)
	_ MaskedCandidateAppender = (*GaussianDB)(nil)
)

// CandidatesMaskedAppend implements MaskedCandidateAppender for the
// deterministic radio map: the quantized kernel over masked blocks
// when it can serve, the exact scan over the mask otherwise.
//
//moloc:hotpath
func (db *DB) CandidatesMaskedAppend(dst []Candidate, f Fingerprint, k int, q *Query) ([]Candidate, bool) {
	if q == nil || q.count == 0 || k <= 0 || len(db.fps) == 0 {
		return dst, false
	}
	mustSameLen(f, db.fps[0])
	if out, ok := db.kNearestQuant(dst, f, k, q, q); ok {
		return out, true
	}
	if k > q.count {
		k = q.count
	}
	return db.kNearestScan(candBuf(dst, k), f, k, q), true
}

// KNearestQuantAppend is KNearestAppend through the quantized kernel
// over every block: value-identical to the exact scan (ties included).
// ok is false when the quantized path cannot serve — non-Euclidean
// metric, unquantizable map, or a query RSS outside the quantization
// range — and the caller must use KNearestAppend.
func (db *DB) KNearestQuantAppend(dst []Candidate, f Fingerprint, k int, q *Query) ([]Candidate, bool) {
	if k <= 0 || len(db.fps) == 0 {
		return dst, false
	}
	mustSameLen(f, db.fps[0])
	return db.kNearestQuant(dst, f, k, q, nil)
}

// kNearestQuant runs the blocked quantized prefilter and the exact
// rescore over the lanes of mask (every location when mask is nil),
// with q's scratch. See the file comment for the layout and the
// equivalence argument; the bound derivation is in DESIGN.md §13.
//
//moloc:hotpath
func (db *DB) kNearestQuant(dst []Candidate, f Fingerprint, k int, q, mask *Query) ([]Candidate, bool) {
	qm := db.quant
	if qm == nil || q == nil || len(f) != qm.w {
		return dst, false
	}

	// Quantize the query once. A component outside the quantization
	// range would saturate and void the error bound: refuse, the caller
	// runs the exact path. (The comparison is written so NaN refuses.)
	if cap(q.qcode) < qm.w {
		q.qcode = make([]int32, qm.w)
	}
	qf := q.qcode[:qm.w]
	for a, v := range f {
		c := math.Round((v - qm.mid) * qm.inv)
		if !(c >= -127 && c <= 127) {
			return dst, false
		}
		qf[a] = int32(c)
	}

	if cap(q.acc) < qBlock {
		q.acc = make([]int32, qBlock)
	}
	acc := q.acc[:qBlock]
	short := q.short[:0]
	if cap(q.ub) < k {
		q.ub = make([]float64, 0, k)
	}
	ubTop := q.ub[:0]

	// Bound constants: for exact per-AP difference x and code difference
	// c, |x - step*c| <= step, so with S = sum c^2 over w APs,
	//	exact^2 <= step^2 * (S + 2*sqrt(w*S) + w)   (upper)
	//	exact^2 >= step^2 * (S - 2*sqrt(w*S))       (lower)
	// by Cauchy-Schwarz on the cross terms.
	s2 := qm.step * qm.step
	wf := float64(qm.w)
	w := qm.w

	tau := math.Inf(1)
	for bi, nb := 0, scanBlocks(mask, qm.n); bi < nb; bi++ {
		b, word := scanLanes(mask, bi, qm.n)
		if word == 0 {
			continue
		}
		// One AP dimension at a time: 64 int8 lanes, one cache line.
		base := b * w * qBlock
		for j := range acc {
			acc[j] = 0
		}
		for a := 0; a < w; a++ {
			qa := qf[a]
			row := qm.codes[base+a*qBlock : base+a*qBlock+qBlock]
			for j, c := range row {
				d := qa - int32(c)
				acc[j] += d * d
			}
		}
		loc0 := b * qBlock
		for ; word != 0; word &= word - 1 {
			j := bits.TrailingZeros64(word)
			sq := float64(acc[j])
			rt := math.Sqrt(wf * sq)
			if s2*(sq-2*rt) <= tau { // lower bound can still make top-k
				short = append(short, int32(loc0+j))
			}
			if ub := s2 * (sq + 2*rt + wf); len(ubTop) < k || ub < tau {
				ubTop = selectUB(ubTop, k, ub)
				if len(ubTop) == k {
					tau = ubTop[k-1]
				}
			}
		}
	}
	q.short, q.ub = short, ubTop[:0]

	// Exact rescore of the shortlist with selectK, the insertion every
	// exact scan shares, over float64 reference rows in ascending
	// location order, so ties resolve identically to the exact full scan.
	dst = candBuf(dst, k)
	worst := math.Inf(1)
	for _, li := range short {
		if d := db.rowDist(f, int(li)); len(dst) < k || d < worst {
			dst = selectK(dst, k, int(li)+1, d)
			worst = dst[len(dst)-1].Dissim
		}
	}
	assignProbs(dst)
	return dst, true
}

// selectUB is selectK for the kernel's bounded top-k of distance upper
// bounds: t (capacity at least k) is sorted ascending; the caller
// tests len(t) < k || ub < t[k-1] before calling.
func selectUB(t []float64, k int, ub float64) []float64 {
	if len(t) < k {
		t = t[:len(t)+1]
	}
	i := len(t) - 1
	for i > 0 && t[i-1] > ub {
		t[i] = t[i-1]
		i--
	}
	t[i] = ub
	return t
}

// CandidatesMaskedAppend implements MaskedCandidateAppender for the
// probabilistic source: the masked locations ranked by negative
// log-likelihood, softmax-normalized over the masked candidate set.
//
//moloc:hotpath
func (g *GaussianDB) CandidatesMaskedAppend(dst []Candidate, f Fingerprint, k int, q *Query) ([]Candidate, bool) {
	if q == nil || q.count == 0 || k <= 0 {
		return dst, false
	}
	if k > q.count {
		k = q.count
	}
	return g.candidatesScan(candBuf(dst, k), f, k, q), true
}
