package fingerprint

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"moloc/internal/stats"
)

// CandidateSource produces ranked location candidates for a
// fingerprint. Both the deterministic radio map (DB, Eq. 3–4) and the
// probabilistic GaussianDB implement it, so MoLoc's candidate
// evaluation runs unchanged over either — the paper's point that it is
// compatible with existing fingerprinting systems "regardless of
// fingerprint types".
type CandidateSource interface {
	NumLocs() int
	// Candidates returns the k most plausible locations for f with
	// probabilities summing to 1, most probable first.
	Candidates(f Fingerprint, k int) []Candidate
}

// CandidateAppender is the allocation-free extension of
// CandidateSource: CandidatesAppend selects into a caller-provided
// buffer, reusing its capacity, so steady-state queries on the serving
// hot path allocate nothing. Both built-in sources implement it; the
// localizer detects it at construction and falls back to Candidates
// for third-party sources.
type CandidateAppender interface {
	CandidateSource
	// CandidatesAppend fills dst (which may be nil) with the k most
	// plausible locations for f, exactly as Candidates would, and
	// returns the filled slice.
	CandidatesAppend(dst []Candidate, f Fingerprint, k int) []Candidate
}

var (
	_ CandidateAppender = (*DB)(nil)
	_ CandidateAppender = (*GaussianDB)(nil)
)

// Candidates implements CandidateSource for the deterministic radio
// map via Eq. 3–4.
func (db *DB) Candidates(f Fingerprint, k int) []Candidate {
	return db.KNearest(f, k)
}

// CandidatesAppend implements CandidateAppender for the deterministic
// radio map.
func (db *DB) CandidatesAppend(dst []Candidate, f Fingerprint, k int) []Candidate {
	return db.KNearestAppend(dst, f, k)
}

// GaussianDB is a Horus-style probabilistic radio map: per location and
// AP it stores the Gaussian of the observed RSS, and location estimates
// maximize the joint likelihood of a scan. It is the classic
// alternative to deterministic nearest-neighbor matching (Youssef &
// Agrawala, MobiSys 2005), provided here as an additional baseline and
// as a second candidate source for MoLoc.
type GaussianDB struct {
	numAPs int
	mean   [][]float64 // [loc][ap]
	std    [][]float64 // [loc][ap], floored
}

// MinGaussianStd floors the per-AP standard deviations so a location
// whose survey samples happened to be identical cannot produce an
// infinitely spiky likelihood.
const MinGaussianStd = 1.5

// NewGaussianDB fits per-location, per-AP Gaussians to the survey
// samples. samples[i] holds the scans of location i+1.
func NewGaussianDB(numAPs int, samples [][]Fingerprint) (*GaussianDB, error) {
	if numAPs <= 0 {
		return nil, fmt.Errorf("fingerprint: numAPs must be positive, got %d", numAPs)
	}
	g := &GaussianDB{
		numAPs: numAPs,
		mean:   make([][]float64, len(samples)),
		std:    make([][]float64, len(samples)),
	}
	for i, scans := range samples {
		if len(scans) == 0 {
			return nil, fmt.Errorf("fingerprint: location %d has no survey samples", i+1)
		}
		g.mean[i] = make([]float64, numAPs)
		g.std[i] = make([]float64, numAPs)
		for ap := 0; ap < numAPs; ap++ {
			var o stats.Online
			for _, s := range scans {
				if len(s) != numAPs {
					return nil, fmt.Errorf("fingerprint: location %d sample has %d APs, want %d",
						i+1, len(s), numAPs)
				}
				o.Add(s[ap])
			}
			g.mean[i][ap] = o.Mean()
			g.std[i][ap] = math.Max(o.StdDev(), MinGaussianStd)
		}
	}
	return g, nil
}

// NumLocs returns the number of reference locations.
func (g *GaussianDB) NumLocs() int { return len(g.mean) }

// NumAPs returns the fingerprint dimensionality.
func (g *GaussianDB) NumAPs() int { return g.numAPs }

// LogLikelihood returns the log of the joint Gaussian likelihood of f
// at the location with the given 1-based ID, assuming per-AP
// independence as Horus does.
func (g *GaussianDB) LogLikelihood(loc int, f Fingerprint) float64 {
	if len(f) != g.numAPs {
		panic(fmt.Sprintf("fingerprint: scan has %d APs, database %d", len(f), g.numAPs))
	}
	m, s := g.mean[loc-1], g.std[loc-1]
	var ll float64
	for ap := range f {
		z := (f[ap] - m[ap]) / s[ap]
		ll += -0.5*z*z - math.Log(s[ap])
	}
	return ll
}

// MostLikely returns the maximum-likelihood location for a scan.
func (g *GaussianDB) MostLikely(f Fingerprint) int {
	best, bestLL := 0, math.Inf(-1)
	for loc := 1; loc <= g.NumLocs(); loc++ {
		if ll := g.LogLikelihood(loc, f); ll > bestLL {
			best, bestLL = loc, ll
		}
	}
	return best
}

// Candidates implements CandidateSource: the k most likely locations
// with their normalized posterior probabilities (uniform prior). The
// Dissim field carries the negative log-likelihood so lower remains
// better, as with the deterministic source. The returned slice is
// freshly allocated and right-sized.
func (g *GaussianDB) Candidates(f Fingerprint, k int) []Candidate {
	if k <= 0 {
		return nil
	}
	return g.CandidatesAppend(nil, f, k)
}

// CandidatesAppend implements CandidateAppender: Candidates into a
// reused buffer via a bounded selection scan, allocation-free at
// steady state.
//
//moloc:hotpath
func (g *GaussianDB) CandidatesAppend(dst []Candidate, f Fingerprint, k int) []Candidate {
	n := g.NumLocs()
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst[:0]
	}
	return g.candidatesScan(candBuf(dst, k), f, k, nil)
}

// candidatesScan ranks the locations q admits (every location when q
// is nil) by negative log-likelihood with the same bounded selection
// as DB.kNearestScan, ordered exactly as CandidatesRef's sort, and
// softmax-normalizes the result. dst must be empty with capacity k.
//
//moloc:hotpath
func (g *GaussianDB) candidatesScan(dst []Candidate, f Fingerprint, k int, q *Query) []Candidate {
	n := g.NumLocs()
	worst := math.Inf(1)
	for bi, nb := 0, scanBlocks(q, n); bi < nb; bi++ {
		b, word := scanLanes(q, bi, n)
		for ; word != 0; word &= word - 1 {
			i := b*qBlock + bits.TrailingZeros64(word)
			d := -g.LogLikelihood(i+1, f)
			if len(dst) < k || d < worst {
				dst = selectK(dst, k, i+1, d)
				worst = dst[len(dst)-1].Dissim
			}
		}
	}
	softmaxProbs(dst)
	return dst
}

// CandidatesRef is the pre-compilation reference implementation of
// Candidates — score every location, sort, slice — retained as the
// executable specification for equivalence tests and benchmarks.
func (g *GaussianDB) CandidatesRef(f Fingerprint, k int) []Candidate {
	if k <= 0 {
		return nil
	}
	if k > g.NumLocs() {
		k = g.NumLocs()
	}
	all := make([]Candidate, g.NumLocs())
	for i := range all {
		all[i] = Candidate{Loc: i + 1, Dissim: -g.LogLikelihood(i+1, f)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dissim != all[b].Dissim {
			return all[a].Dissim < all[b].Dissim
		}
		return all[a].Loc < all[b].Loc
	})
	top := append([]Candidate(nil), all[:k]...)
	softmaxProbs(top)
	return top
}

// softmaxProbs fills the probabilities of a sorted candidate set whose
// Dissim fields carry negative log-likelihoods: a softmax anchored at
// the best for numerical stability.
//
//moloc:hotpath
func softmaxProbs(top []Candidate) {
	if len(top) == 0 {
		return
	}
	best := -top[0].Dissim
	var norm float64
	for i := range top {
		p := math.Exp(-top[i].Dissim - best)
		top[i].Prob = p
		norm += p
	}
	for i := range top {
		top[i].Prob /= norm
	}
}

// ProjectAPs returns a new GaussianDB restricted to the given AP
// indices.
func (g *GaussianDB) ProjectAPs(apIdx []int) (*GaussianDB, error) {
	for _, a := range apIdx {
		if a < 0 || a >= g.numAPs {
			return nil, fmt.Errorf("fingerprint: AP index %d out of range [0,%d)", a, g.numAPs)
		}
	}
	out := &GaussianDB{
		numAPs: len(apIdx),
		mean:   make([][]float64, len(g.mean)),
		std:    make([][]float64, len(g.std)),
	}
	for i := range g.mean {
		out.mean[i] = make([]float64, len(apIdx))
		out.std[i] = make([]float64, len(apIdx))
		for j, a := range apIdx {
			out.mean[i][j] = g.mean[i][a]
			out.std[i][j] = g.std[i][a]
		}
	}
	return out, nil
}
