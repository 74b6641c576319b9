// Package localizer implements the localization engines compared in the
// paper: the WiFi fingerprinting baseline (nearest neighbor, Eq. 2),
// MoLoc's motion-assisted candidate evaluation (Eq. 3–7), an
// accelerometer-assisted HMM baseline in the spirit of Liu et al. [23],
// and a dead-reckoning ablation that uses motion only.
package localizer

import (
	"fmt"

	"moloc/internal/fingerprint"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
)

// Observation is the input to one localization round: the RSS
// fingerprint scanned at the end of the interval and, when the user was
// walking, the relative location measurement extracted from the IMU
// stream. Motion is nil for the first observation of a trace and for
// intervals where the user stood still.
type Observation struct {
	FP     fingerprint.Fingerprint
	Motion *motion.RLM
}

// Localizer estimates a reference-location ID per observation. Reset
// clears per-trace state before a new trace begins.
type Localizer interface {
	Name() string
	Localize(obs Observation) int
	Reset()
}

// WiFiNN is the paper's baseline: nearest-neighbor fingerprinting with
// no memory (Eq. 2).
type WiFiNN struct {
	db *fingerprint.DB
}

var _ Localizer = (*WiFiNN)(nil)

// NewWiFiNN builds the baseline over a radio map.
func NewWiFiNN(db *fingerprint.DB) *WiFiNN { return &WiFiNN{db: db} }

// Name implements Localizer.
func (w *WiFiNN) Name() string { return "wifi-nn" }

// Localize implements Localizer.
func (w *WiFiNN) Localize(obs Observation) int { return w.db.Nearest(obs.FP) }

// Reset implements Localizer. The baseline is stateless.
func (w *WiFiNN) Reset() {}

// Config holds MoLoc's algorithm parameters.
type Config struct {
	// K is the candidate-set size (paper Sec. V-A).
	K int
	// Alpha is the direction discretization interval in degrees for
	// Eq. 5 (20 in the paper, matching the motion DB's direction spread).
	Alpha float64
	// Beta is the offset discretization interval in meters (1 in the
	// paper).
	Beta float64
	// UnreachableProb is the motion-matching probability assigned to a
	// candidate pair with no motion-database entry (not adjacent, or
	// never trained). A small non-zero value keeps the posterior from
	// collapsing when the database is sparse.
	UnreachableProb float64
	// PriorBlend is the weight of the fused posterior in the retained
	// candidate probabilities; the remaining mass comes from the fresh
	// fingerprint probabilities (Eq. 4). 1 retains the pure posterior of
	// Eq. 7. Values below 1 keep the tracker from locking onto a
	// motion-consistent but wrong hypothesis: the grid's translational
	// symmetry means a shifted track matches every subsequent motion
	// measurement, and only fingerprint evidence can break the tie.
	PriorBlend float64
	// Gate enables SRL-KNN-style reachability gating of the candidate
	// scan: when a previous interval's candidate set exists and the
	// interval carries motion, the fingerprint search is restricted to
	// the locations within one motion-DB hop of the prior candidates
	// (plus the candidates themselves), so the motion prior prunes the
	// O(n) radio-map scan before any distance is computed. The gated
	// path falls back to the full scan on Reset, on intervals without
	// motion (fingerprint-only degradation), on an empty mask, and for
	// candidate sources without masked-scan support. Off by default:
	// gating restricts the candidate set, so gated fixes are not
	// guaranteed bit-identical to the ungated reference.
	Gate bool
}

// NewConfig returns the defaults: k = 8 candidates (the paper leaves k
// unspecified; the candidate-k ablation favors 8 on the office hall),
// and the paper's discretization intervals alpha = 20 degrees,
// beta = 1 m.
func NewConfig() Config {
	return Config{K: 8, Alpha: 20, Beta: 1, UnreachableProb: 1e-5, PriorBlend: 1}
}

// Validate rejects unusable MoLoc parameters.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("localizer: K must be >= 1, got %d", c.K)
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		return fmt.Errorf("localizer: discretization intervals must be positive")
	}
	if c.UnreachableProb < 0 {
		return fmt.Errorf("localizer: UnreachableProb must be >= 0")
	}
	if c.PriorBlend < 0 || c.PriorBlend > 1 {
		return fmt.Errorf("localizer: PriorBlend must be in [0,1], got %g", c.PriorBlend)
	}
	return nil
}

// MoLoc is the paper's motion-assisted localizer. It maintains the set
// of location candidates from the previous interval with their
// posterior probabilities; each new interval combines fingerprint
// probabilities (Eq. 4) with motion-matching probabilities against the
// motion database (Eq. 5–6) into the posterior of Eq. 7.
//
// NewMoLoc builds the serving configuration: the motion database is
// compiled (motiondb.Compiled) and every per-interval buffer is reused,
// so a steady-state Localize allocates nothing and the Eq. 6 inner
// loop walks a CSR adjacency with table-interpolated probabilities
// instead of hashing into a map and evaluating erf four times per
// pair. NewMoLocReference builds the uncompiled executable
// specification the fast path is tested against.
type MoLoc struct {
	src fingerprint.CandidateSource
	app fingerprint.CandidateAppender       // non-nil when src supports appending
	msk fingerprint.MaskedCandidateAppender // non-nil when gating is on and src supports it
	mdb *motiondb.DB
	cmp *motiondb.Compiled // nil in reference mode
	cfg Config

	// query holds the reachability mask and kernel scratch of the gated
	// scan; nil unless gating is active.
	query      *fingerprint.Query
	gatedScans int

	//moloc:reuse
	prior []fingerprint.Candidate

	// Scratch reused across intervals by the compiled path.
	//moloc:reuse
	candBuf []fingerprint.Candidate
	//moloc:reuse
	postBuf []fingerprint.Candidate
	//moloc:reuse
	pm []float64
	//moloc:reuse
	locIdx []int32 // candidate index by location, -1 when absent
}

var _ Localizer = (*MoLoc)(nil)

// NewMoLoc builds the localizer over a candidate source (the
// deterministic radio map or the Horus-style Gaussian map — MoLoc is
// agnostic to the fingerprint method) and a trained motion database,
// compiled for the serving fast path.
func NewMoLoc(src fingerprint.CandidateSource, mdb *motiondb.DB, cfg Config) (*MoLoc, error) {
	m, err := NewMoLocReference(src, mdb, cfg)
	if err != nil {
		return nil, err
	}
	cmp, err := mdb.Compile(cfg.Alpha, cfg.Beta)
	if err != nil {
		return nil, err
	}
	m.cmp = cmp
	m.app, _ = src.(fingerprint.CandidateAppender)
	m.locIdx = make([]int32, src.NumLocs()+1)
	for i := range m.locIdx {
		m.locIdx[i] = -1
	}
	if cfg.Gate {
		if msk, ok := src.(fingerprint.MaskedCandidateAppender); ok {
			m.msk = msk
			m.query = fingerprint.NewQuery(src.NumLocs())
		}
	}
	return m, nil
}

// NewMoLocReference builds the uncompiled reference localizer: the
// direct transcription of Eq. 3–7 over DB.Lookup and Entry.Prob. It is
// the executable specification the compiled fast path is equivalence-
// tested against, and the "before" side of the benchmarks.
func NewMoLocReference(src fingerprint.CandidateSource, mdb *motiondb.DB, cfg Config) (*MoLoc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src.NumLocs() != mdb.NumLocs() {
		return nil, fmt.Errorf("localizer: candidate source has %d locations, motion DB %d",
			src.NumLocs(), mdb.NumLocs())
	}
	return &MoLoc{src: src, mdb: mdb, cfg: cfg}, nil
}

// Name implements Localizer.
func (m *MoLoc) Name() string { return "moloc" }

// UseCompiled swaps the compiled motion index the serving fast path
// walks; the tracker's snapshot acquisition calls it when the server
// publishes a retrained view. Candidate state carries over — posterior
// probabilities remain valid, only the motion model changes — and no
// buffer is reallocated, so the swap itself is allocation-free. The
// view must cover the source's locations and be compiled for this
// localizer's discretization intervals. Reference-mode localizers
// (NewMoLocReference) reject the swap: they are the executable spec of
// the uncompiled path.
func (m *MoLoc) UseCompiled(cmp *motiondb.Compiled) error {
	if m.cmp == nil {
		return fmt.Errorf("localizer: reference-mode MoLoc cannot adopt a compiled view")
	}
	if cmp == nil {
		return fmt.Errorf("localizer: nil compiled view")
	}
	if cmp.NumLocs() != m.src.NumLocs() {
		return fmt.Errorf("localizer: compiled view covers %d locations, source has %d",
			cmp.NumLocs(), m.src.NumLocs())
	}
	if cmp.Alpha() != m.cfg.Alpha || cmp.Beta() != m.cfg.Beta {
		return fmt.Errorf("localizer: view compiled for alpha=%g beta=%g, localizer uses alpha=%g beta=%g",
			cmp.Alpha(), cmp.Beta(), m.cfg.Alpha, m.cfg.Beta)
	}
	m.cmp = cmp
	return nil
}

// Reset implements Localizer: it forgets the candidate set, as at the
// start of a new trace. Scratch buffers are retained.
func (m *MoLoc) Reset() { m.prior = m.prior[:0] }

// Candidates returns the current candidate set with posterior
// probabilities, most probable first. The returned slice must not be
// modified and is only valid until the next Localize or Reset call —
// the serving path reuses its backing buffer. Callers that retain
// candidate sets (e.g. the tracker's fixes) must copy.
//
//moloc:reuse
func (m *MoLoc) Candidates() []fingerprint.Candidate { return m.prior }

// candidates queries the source, through the allocation-free append
// API when the source supports it.
//
//moloc:reuse
func (m *MoLoc) candidates(fp fingerprint.Fingerprint) []fingerprint.Candidate {
	if m.app != nil {
		m.candBuf = m.app.CandidatesAppend(m.candBuf[:0], fp, m.cfg.K)
		return m.candBuf
	}
	return m.src.Candidates(fp, m.cfg.K)
}

// GatedScans reports how many candidate scans ran through the
// reachability gate (rather than the full radio map) since
// construction. Diagnostic only.
func (m *MoLoc) GatedScans() int { return m.gatedScans }

// candidatesGated queries the source through the reachability gate
// when it applies, and through the full scan otherwise. The fallback
// ladder, top to bottom: gating disabled or unsupported by the source;
// no prior candidate set (first interval of a trace, or just after
// Reset); no motion in this interval (covers fingerprint-only
// degradation — the tracker strips Motion); empty mask; masked scan
// refused. Each rung lands on the exact full scan, so gating can only
// narrow the search, never wedge it.
//
//moloc:reuse
func (m *MoLoc) candidatesGated(obs Observation) []fingerprint.Candidate {
	if m.msk == nil || len(m.prior) == 0 || obs.Motion == nil {
		return m.candidates(obs.FP)
	}
	// One-hop reachability from the prior candidate set, plus the
	// candidates themselves (the user may have stayed put).
	q := m.query
	q.ResetMask()
	for _, prev := range m.prior {
		q.MaskLoc(prev.Loc)
		lo, hi := m.cmp.Row(prev.Loc)
		for e := lo; e < hi; e++ {
			q.MaskLoc(m.cmp.Col(e))
		}
	}
	if cands, ok := m.msk.CandidatesMaskedAppend(m.candBuf[:0], obs.FP, m.cfg.K, q); ok {
		m.candBuf = cands
		m.gatedScans++
		return cands
	}
	return m.candidates(obs.FP)
}

// Localize implements Localizer. The first observation of a trace (or
// one without motion) is resolved by fingerprints alone; subsequent
// observations are fused per Eq. 7 and the posterior is retained as the
// next prior.
func (m *MoLoc) Localize(obs Observation) int {
	if m.cmp != nil {
		return m.localizeCompiled(obs)
	}
	return m.localizeReference(obs)
}

// localizeCompiled is the allocation-free serving path. It computes
// the same Eq. 6 sums as the reference by decomposition: every
// (prev, cand) pair contributes at least prior * UnreachableProb, and
// only pairs with a motion-database edge add the table-evaluated
// excess — so instead of probing the database K×K times, it walks the
// compiled adjacency rows of the K prior candidates and scatters into
// the candidates present in this interval's set.
//
//moloc:hotpath
func (m *MoLoc) localizeCompiled(obs Observation) int {
	cands := m.candidatesGated(obs)
	if len(cands) == 0 {
		return 0
	}
	if len(m.prior) == 0 || obs.Motion == nil {
		m.prior = append(m.prior[:0], cands...)
		return best(cands)
	}

	d, o := obs.Motion.Dir, obs.Motion.Off
	u := m.cfg.UnreachableProb
	n := len(m.locIdx) - 1

	// Mark this interval's candidate set for O(1) membership tests.
	for i, c := range cands {
		if c.Loc >= 1 && c.Loc <= n {
			m.locIdx[c.Loc] = int32(i)
		}
	}
	if cap(m.pm) < len(cands) {
		m.pm = make([]float64, len(cands))
	}
	pm := m.pm[:len(cands)]
	for i := range pm {
		pm[i] = 0
	}

	// Eq. 6 over the compiled adjacency: scatter each prior candidate's
	// motion mass into the reachable members of the new candidate set.
	var sumPrior float64
	for _, prev := range m.prior {
		sumPrior += prev.Prob
		lo, hi := m.cmp.Row(prev.Loc)
		for e := lo; e < hi; e++ {
			ci := m.locIdx[m.cmp.Col(e)]
			if ci < 0 {
				continue
			}
			p := m.cmp.EdgeProb(e, d, o)
			if p < u {
				p = u
			}
			pm[ci] += prev.Prob * (p - u)
		}
	}
	for _, c := range cands {
		if c.Loc >= 1 && c.Loc <= n {
			m.locIdx[c.Loc] = -1
		}
	}

	// Eq. 7: fuse with the fingerprint probabilities.
	base := sumPrior * u
	post := append(m.postBuf[:0], cands...)
	m.postBuf = post
	var norm float64
	for i := range post {
		post[i].Prob = cands[i].Prob * (pm[i] + base)
		norm += post[i].Prob
	}
	if norm <= 0 {
		// Motion contradicts every candidate; fall back to fingerprints,
		// as a fresh start.
		m.prior = append(m.prior[:0], cands...)
		return best(cands)
	}
	for i := range post {
		post[i].Prob /= norm
	}
	ret := best(post)
	for i := range post {
		post[i].Prob = m.cfg.PriorBlend*post[i].Prob +
			(1-m.cfg.PriorBlend)*cands[i].Prob
	}
	sortByProb(post)
	m.prior, m.postBuf = post, m.prior
	return ret
}

// localizeReference is the direct transcription of Eq. 3–7: a K×K
// double loop of map lookups and exact Gaussian-interval evaluations.
func (m *MoLoc) localizeReference(obs Observation) int {
	cands := m.src.Candidates(obs.FP, m.cfg.K)
	if len(cands) == 0 {
		return 0
	}
	if len(m.prior) == 0 || obs.Motion == nil {
		m.prior = cands
		return best(cands)
	}

	d, o := obs.Motion.Dir, obs.Motion.Off
	posterior := make([]fingerprint.Candidate, len(cands))
	var norm float64
	for i, c := range cands {
		// Eq. 6: total probability of reaching c.Loc from the prior
		// candidate set through motion (d, o).
		var pMotion float64
		for _, prev := range m.prior {
			p := m.cfg.UnreachableProb
			if e, ok := m.mdb.Lookup(prev.Loc, c.Loc); ok {
				p = e.Prob(d, o, m.cfg.Alpha, m.cfg.Beta)
				if p < m.cfg.UnreachableProb {
					p = m.cfg.UnreachableProb
				}
			}
			pMotion += prev.Prob * p
		}
		// Eq. 7: fuse with the fingerprint probability.
		posterior[i] = c
		posterior[i].Prob = c.Prob * pMotion
		norm += posterior[i].Prob
	}
	if norm <= 0 {
		// Motion contradicts every candidate; fall back to fingerprints,
		// as a fresh start.
		m.prior = cands
		return best(cands)
	}
	for i := range posterior {
		posterior[i].Prob /= norm
	}
	// The estimate is the argmax of the pure Eq. 7 posterior.
	ret := best(posterior)
	// The retained prior blends the posterior with the fresh fingerprint
	// probabilities (see Config.PriorBlend).
	for i := range posterior {
		posterior[i].Prob = m.cfg.PriorBlend*posterior[i].Prob +
			(1-m.cfg.PriorBlend)*cands[i].Prob
	}
	sortByProb(posterior) // the evaluation "ranks these candidates"
	m.prior = posterior
	return ret
}

// best returns the location of the highest-probability candidate,
// breaking ties toward lower dissimilarity.
func best(cands []fingerprint.Candidate) int {
	bi := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Prob > cands[bi].Prob ||
			(cands[i].Prob == cands[bi].Prob && cands[i].Dissim < cands[bi].Dissim) {
			bi = i
		}
	}
	return cands[bi].Loc
}

// DeadReckoning is an ablation localizer: after an initial fingerprint
// fix, it tracks the user with motion matching only, ignoring all
// subsequent fingerprints. It shows why MoLoc fuses both signals: pure
// motion drifts as soon as one transition is misjudged. It runs only
// offline (the abl-hmm experiment), so it is the direct O(n·K)
// transcription of Eq. 6.
type DeadReckoning struct {
	src   fingerprint.CandidateSource
	mdb   *motiondb.DB
	cfg   Config
	prior []fingerprint.Candidate
}

var _ Localizer = (*DeadReckoning)(nil)

// NewDeadReckoning builds the motion-only ablation localizer.
func NewDeadReckoning(src fingerprint.CandidateSource, mdb *motiondb.DB, cfg Config) (*DeadReckoning, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DeadReckoning{src: src, mdb: mdb, cfg: cfg}, nil
}

// Name implements Localizer.
func (dr *DeadReckoning) Name() string { return "dead-reckoning" }

// Reset implements Localizer.
func (dr *DeadReckoning) Reset() { dr.prior = dr.prior[:0] }

// Localize implements Localizer: Eq. 6 evaluated at every location via
// map lookups and exact Gaussian intervals.
func (dr *DeadReckoning) Localize(obs Observation) int {
	if len(dr.prior) == 0 || obs.Motion == nil {
		dr.prior = dr.src.Candidates(obs.FP, dr.cfg.K)
		if len(dr.prior) == 0 {
			return 0
		}
		return best(dr.prior)
	}
	d, o := obs.Motion.Dir, obs.Motion.Off
	n := dr.src.NumLocs()
	posterior := make([]fingerprint.Candidate, 0, n)
	var norm float64
	for loc := 1; loc <= n; loc++ {
		var pMotion float64
		for _, prev := range dr.prior {
			p := dr.cfg.UnreachableProb
			if e, ok := dr.mdb.Lookup(prev.Loc, loc); ok {
				p = e.Prob(d, o, dr.cfg.Alpha, dr.cfg.Beta)
				if p < dr.cfg.UnreachableProb {
					p = dr.cfg.UnreachableProb
				}
			}
			pMotion += prev.Prob * p
		}
		if pMotion > 0 {
			posterior = append(posterior, fingerprint.Candidate{Loc: loc, Prob: pMotion})
			norm += pMotion
		}
	}
	if norm <= 0 || len(posterior) == 0 {
		return best(dr.prior)
	}
	for i := range posterior {
		posterior[i].Prob /= norm
	}
	// Keep the K most probable to bound state like MoLoc does.
	sortByProb(posterior)
	if len(posterior) > dr.cfg.K {
		posterior = posterior[:dr.cfg.K]
		var s float64
		for _, c := range posterior {
			s += c.Prob
		}
		for i := range posterior {
			posterior[i].Prob /= s
		}
	}
	dr.prior = posterior
	return best(dr.prior)
}

// sortByProb sorts candidates by descending probability, breaking ties
// by ascending location ID. Insertion sort suffices: the slice holds at
// most a few dozen candidates.
func sortByProb(cs []fingerprint.Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			if cs[j].Prob > cs[j-1].Prob ||
				(cs[j].Prob == cs[j-1].Prob && cs[j].Loc < cs[j-1].Loc) {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			} else {
				break
			}
		}
	}
}

// Horus is the probabilistic-fingerprinting baseline in the style of
// Youssef & Agrawala's Horus (MobiSys 2005), which the paper cites among
// the RSS-fingerprinting systems MoLoc can sit on top of: stateless
// maximum-likelihood location estimation over per-location Gaussians.
type Horus struct {
	gdb *fingerprint.GaussianDB
}

var _ Localizer = (*Horus)(nil)

// NewHorus builds the baseline over a Gaussian radio map.
func NewHorus(gdb *fingerprint.GaussianDB) *Horus { return &Horus{gdb: gdb} }

// Name implements Localizer.
func (h *Horus) Name() string { return "horus" }

// Localize implements Localizer.
func (h *Horus) Localize(obs Observation) int { return h.gdb.MostLikely(obs.FP) }

// Reset implements Localizer. The baseline is stateless.
func (h *Horus) Reset() {}
