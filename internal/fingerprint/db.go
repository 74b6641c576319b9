package fingerprint

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
)

// Candidate is a location candidate returned by a k-NN query: a
// reference location ID, its fingerprint dissimilarity m_i, and the
// probability of Eq. 4, P(x = l_i | F) = (1/m_i) / sum_j (1/m_j).
type Candidate struct {
	Loc    int     `json:"loc"`
	Dissim float64 `json:"dissim"`
	Prob   float64 `json:"prob"`
}

// DB is the fingerprint database (radio map): one representative
// fingerprint per reference location, built by averaging site-survey
// samples. Location IDs are 1-based and contiguous.
//
// The radio map is stored as one contiguous row-major []float64 so the
// k-NN distance scan of Eq. 3 streams through memory instead of
// chasing per-location slice headers; fps holds per-location views
// into it for the At/Metric APIs.
type DB struct {
	metric Metric
	numAPs int
	// flat is the row-major radio map: location i+1 occupies
	// flat[i*numAPs : (i+1)*numAPs].
	flat []float64
	// fps[i] is the radio-map fingerprint of location i+1, a view into
	// flat.
	fps []Fingerprint
	// quant is the int8 blocked-SoA companion of flat used by the
	// quantized distance kernel (quant.go); nil when the metric is not
	// Euclidean or the map cannot be quantized.
	quant *quantMap
}

// initFlat installs the contiguous radio map, carves the per-location
// views, and — for the Euclidean metric — builds the quantized
// blocked-SoA companion the masked/quantized kernels scan.
func (db *DB) initFlat(flat []float64, n int) {
	db.flat = flat
	db.fps = make([]Fingerprint, n)
	for i := 0; i < n; i++ {
		db.fps[i] = Fingerprint(flat[i*db.numAPs : (i+1)*db.numAPs : (i+1)*db.numAPs])
	}
	if _, euclid := db.metric.(Euclidean); euclid {
		db.quant = buildQuant(flat, n, db.numAPs)
	}
}

// NewDB builds a radio map from per-location survey samples:
// samples[i] holds the scans collected at location i+1, each of length
// numAPs. The representative fingerprint is the per-AP mean, the
// standard radio-map construction (RADAR). Every location needs at
// least one sample.
func NewDB(metric Metric, numAPs int, samples [][]Fingerprint) (*DB, error) {
	if metric == nil {
		return nil, fmt.Errorf("fingerprint: nil metric")
	}
	if numAPs <= 0 {
		return nil, fmt.Errorf("fingerprint: numAPs must be positive, got %d", numAPs)
	}
	db := &DB{metric: metric, numAPs: numAPs}
	flat := make([]float64, len(samples)*numAPs)
	for i, scans := range samples {
		if len(scans) == 0 {
			return nil, fmt.Errorf("fingerprint: location %d has no survey samples", i+1)
		}
		mean := flat[i*numAPs : (i+1)*numAPs]
		for _, s := range scans {
			if len(s) != numAPs {
				return nil, fmt.Errorf("fingerprint: location %d sample has %d APs, want %d", i+1, len(s), numAPs)
			}
			for a, v := range s {
				mean[a] += v
			}
		}
		for a := range mean {
			mean[a] /= float64(len(scans))
		}
	}
	db.initFlat(flat, len(samples))
	return db, nil
}

// NumLocs returns the number of reference locations.
func (db *DB) NumLocs() int { return len(db.fps) }

// NumAPs returns the fingerprint dimensionality.
func (db *DB) NumAPs() int { return db.numAPs }

// Metric returns the dissimilarity metric in use.
func (db *DB) Metric() Metric { return db.metric }

// At returns the radio-map fingerprint of a location (1-based ID). The
// returned slice must not be modified.
func (db *DB) At(loc int) Fingerprint { return db.fps[loc-1] }

// Nearest implements Eq. 2: the location whose radio-map fingerprint is
// least dissimilar to f.
func (db *DB) Nearest(f Fingerprint) int {
	best, bestD := 0, 0.0
	for i, rm := range db.fps {
		d := db.metric.Distance(f, rm)
		if best == 0 || d < bestD {
			best, bestD = i+1, d
		}
	}
	return best
}

// KNearest implements Eq. 3–4: the k locations with the smallest
// dissimilarities to f, each with probability proportional to the
// inverse of its dissimilarity. If any dissimilarity is zero (an exact
// radio-map match), that candidate takes probability 1 and the rest 0,
// the limit of the 1/m weighting. Candidates are sorted by descending
// probability. k is clamped to the number of locations.
//
// The returned slice is freshly allocated and right-sized, so holding
// a candidate set never pins the full radio map's worth of scratch.
// Steady-state callers should prefer KNearestAppend with a reused
// buffer.
func (db *DB) KNearest(f Fingerprint, k int) []Candidate {
	if k <= 0 {
		return nil
	}
	return db.KNearestAppend(nil, f, k)
}

// KNearestAppend is KNearest into a caller-provided buffer: the top-k
// candidates are selected into dst (reusing its capacity; dst may be
// nil) with a bounded selection scan instead of a full sort, so a
// steady-state query allocates nothing. It returns the filled slice,
// which is sorted and weighted exactly as KNearest's.
//
//moloc:hotpath
func (db *DB) KNearestAppend(dst []Candidate, f Fingerprint, k int) []Candidate {
	n := len(db.fps)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst[:0]
	}
	mustSameLen(f, db.fps[0])
	return db.kNearestScan(candBuf(dst, k), f, k, nil)
}

// kNearestScan is the exact bounded selection of Eq. 3–4 into dst
// (empty, capacity k) over the locations q admits: every location when
// q is nil, the masked ones otherwise.
//
//moloc:hotpath
func (db *DB) kNearestScan(dst []Candidate, f Fingerprint, k int, q *Query) []Candidate {
	_, euclid := db.metric.(Euclidean)
	n := len(db.fps)
	worst := math.Inf(1)
	for bi, nb := 0, scanBlocks(q, n); bi < nb; bi++ {
		b, word := scanLanes(q, bi, n)
		for ; word != 0; word &= word - 1 {
			i := b*qBlock + bits.TrailingZeros64(word)
			var d float64
			if euclid {
				d = db.rowDist(f, i)
			} else {
				d = db.metric.Distance(f, db.fps[i])
			}
			if len(dst) < k || d < worst {
				dst = selectK(dst, k, i+1, d)
				worst = dst[len(dst)-1].Dissim
			}
		}
	}
	assignProbs(dst)
	return dst
}

// rowDist is Eq. 1 under the Euclidean metric against the contiguous
// row of 0-based location i: the common metric skips the interface call
// in the innermost loop.
func (db *DB) rowDist(f Fingerprint, i int) float64 {
	row := db.flat[i*db.numAPs : (i+1)*db.numAPs]
	var s float64
	for a, v := range f {
		dv := v - row[a]
		s += dv * dv
	}
	return math.Sqrt(s)
}

// candBuf returns dst emptied, or a fresh buffer when its capacity
// cannot hold k candidates.
func candBuf(dst []Candidate, k int) []Candidate {
	if cap(dst) < k {
		return make([]Candidate, 0, k)
	}
	return dst[:0]
}

// selectK is the one bounded top-k insertion every candidate scan
// shares: it inserts (loc, d) into c (capacity k, sorted by
// dissimilarity), dropping the worst when c is full. Callers keep the
// rejection test (len(c) < k || d < worst) inline and offer locations
// in ascending order, so ties resolve as in the reference sort.
func selectK(c []Candidate, k, loc int, d float64) []Candidate {
	if len(c) < k {
		c = c[:len(c)+1]
	}
	j := len(c) - 1
	for j > 0 && c[j-1].Dissim > d {
		c[j] = c[j-1]
		j--
	}
	c[j] = Candidate{Loc: loc, Dissim: d}
	return c
}

// KNearestRef is the pre-compilation reference implementation of
// KNearest — score every location, sort, slice — retained as the
// executable specification: equivalence tests and benchmarks compare
// the selection-scan fast path against it.
func (db *DB) KNearestRef(f Fingerprint, k int) []Candidate {
	if k <= 0 {
		return nil
	}
	if k > len(db.fps) {
		k = len(db.fps)
	}
	all := make([]Candidate, len(db.fps))
	for i, rm := range db.fps {
		all[i] = Candidate{Loc: i + 1, Dissim: db.metric.Distance(f, rm)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dissim != all[b].Dissim {
			return all[a].Dissim < all[b].Dissim
		}
		return all[a].Loc < all[b].Loc // deterministic tie-break
	})
	top := append([]Candidate(nil), all[:k]...) // right-sized: don't pin the n-candidate scratch
	assignProbs(top)
	return top
}

// assignProbs fills the Eq. 4 probabilities of a sorted candidate set,
// with the exact-match limit: any zero dissimilarity takes the whole
// mass (split evenly among multiple exact matches).
//
//moloc:hotpath
func assignProbs(top []Candidate) {
	exact := false
	for _, c := range top {
		if c.Dissim == 0 {
			exact = true
			break
		}
	}
	if exact {
		for i := range top {
			if top[i].Dissim == 0 {
				top[i].Prob = 1
			} else {
				top[i].Prob = 0
			}
		}
		var total float64
		for _, c := range top {
			total += c.Prob
		}
		for i := range top {
			top[i].Prob /= total
		}
		return
	}
	var invSum float64
	for _, c := range top {
		invSum += 1 / c.Dissim
	}
	for i := range top {
		top[i].Prob = (1 / top[i].Dissim) / invSum
	}
}

// ProjectAPs returns a new DB restricted to the given AP indices,
// reusing the same metric. The AP-count sweeps build a 4- and 5-AP
// database from the 6-AP survey this way, mirroring the paper's use of
// one survey for all settings.
func (db *DB) ProjectAPs(apIdx []int) (*DB, error) {
	for _, a := range apIdx {
		if a < 0 || a >= db.numAPs {
			return nil, fmt.Errorf("fingerprint: AP index %d out of range [0,%d)", a, db.numAPs)
		}
	}
	out := &DB{metric: db.metric, numAPs: len(apIdx)}
	flat := make([]float64, len(db.fps)*len(apIdx))
	for i, fp := range db.fps {
		row := flat[i*len(apIdx):]
		for j, a := range apIdx {
			row[j] = fp[a]
		}
	}
	out.initFlat(flat, len(db.fps))
	return out, nil
}

// dbJSON is the serialized form of DB.
type dbJSON struct {
	Metric string        `json:"metric"`
	NumAPs int           `json:"num_aps"`
	Fps    []Fingerprint `json:"fingerprints"`
}

// SaveJSON writes the radio map to a file. Only the metric name is
// stored; LoadJSON restores the built-in metrics by name.
func (db *DB) SaveJSON(path string) error {
	data, err := json.MarshalIndent(dbJSON{
		Metric: db.metric.Name(), NumAPs: db.numAPs, Fps: db.fps,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("fingerprint: marshal: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("fingerprint: write %s: %w", path, err)
	}
	return nil
}

// LoadJSON reads a radio map written by SaveJSON.
func LoadJSON(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: read %s: %w", path, err)
	}
	var j dbJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("fingerprint: parse %s: %w", path, err)
	}
	var metric Metric
	switch j.Metric {
	case Euclidean{}.Name():
		metric = Euclidean{}
	case Manhattan{}.Name():
		metric = Manhattan{}
	case (MatchedOnly{}).Name():
		metric = MatchedOnly{Missing: -100}
	default:
		return nil, fmt.Errorf("fingerprint: unknown metric %q", j.Metric)
	}
	if j.NumAPs < 0 {
		return nil, fmt.Errorf("fingerprint: negative AP count %d", j.NumAPs)
	}
	flat := make([]float64, len(j.Fps)*j.NumAPs)
	for i, fp := range j.Fps {
		if len(fp) != j.NumAPs {
			return nil, fmt.Errorf("fingerprint: location %d has %d APs, header says %d", i+1, len(fp), j.NumAPs)
		}
		copy(flat[i*j.NumAPs:], fp)
	}
	db := &DB{metric: metric, numAPs: j.NumAPs}
	db.initFlat(flat, len(j.Fps))
	return db, nil
}
