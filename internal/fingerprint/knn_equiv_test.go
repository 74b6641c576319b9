package fingerprint

import (
	"testing"

	"moloc/internal/stats"
)

// randomDB builds a Euclidean radio map of n locations with w APs from
// seeded noise, optionally duplicating some rows to force dissimilarity
// ties.
func randomDB(t *testing.T, n, w int, ties bool) *DB {
	t.Helper()
	return randomMetricDB(t, Euclidean{}, n, w, ties)
}

// randomMetricDB is randomDB under any metric.
func randomMetricDB(t *testing.T, metric Metric, n, w int, ties bool) *DB {
	t.Helper()
	rng := stats.NewRNG(42)
	samples := make([][]Fingerprint, n)
	for i := range samples {
		fp := make(Fingerprint, w)
		for a := range fp {
			fp[a] = rng.Uniform(-90, -30)
		}
		samples[i] = []Fingerprint{fp}
	}
	if ties && n >= 4 {
		copy(samples[n-1][0], samples[1][0]) // exact twin: guaranteed ties
		copy(samples[n-2][0], samples[2][0])
	}
	db, err := NewDB(metric, w, samples)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	return db
}

// equivMetrics are the metrics the exact-scan equivalence tables run
// under: Euclidean takes the inlined distance (and the quantized kernel
// on masked scans), Manhattan the metric interface and the exact scan.
var equivMetrics = []Metric{Euclidean{}, Manhattan{}}

func randomScan(rng *stats.RNG, w int) Fingerprint {
	fp := make(Fingerprint, w)
	for a := range fp {
		fp[a] = rng.Uniform(-90, -30)
	}
	return fp
}

// quantInRange reports whether every component of f quantizes without
// saturating the int8 code range of db's quantized layout.
func quantInRange(db *DB, f Fingerprint) bool {
	qm := db.quant
	if qm == nil {
		return false
	}
	for _, v := range f {
		c := (v - qm.mid) * qm.inv
		if !(c >= -127.5 && c <= 127.5) {
			return false
		}
	}
	return true
}

func candidatesEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKNearestAppendMatchesRef checks value-exact equivalence between
// the selection-scan fast path and the sort-based reference, across
// metrics, sizes (including block boundaries: n = 63, 64, 65, 128,
// 129), k values, tie-heavy maps, and exact radio-map matches.
func TestKNearestAppendMatchesRef(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, metric := range equivMetrics {
		for _, n := range []int{1, 2, 5, 28, 63, 64, 65, 128, 129, 160} {
			for _, ties := range []bool{false, true} {
				db := randomMetricDB(t, metric, n, 6, ties)
				var buf []Candidate
				for _, k := range []int{1, 2, 3, 8, n, n + 5} {
					for trial := 0; trial < 20; trial++ {
						var fp Fingerprint
						if trial%5 == 0 {
							fp = db.At(rng.Intn(n) + 1) // exact match path
						} else {
							fp = randomScan(rng, 6)
						}
						want := db.KNearestRef(fp, k)
						got := db.KNearest(fp, k)
						if !candidatesEqual(got, want) {
							t.Fatalf("%s n=%d ties=%v k=%d: KNearest = %v, reference %v",
								metric.Name(), n, ties, k, got, want)
						}
						buf = db.KNearestAppend(buf, fp, k)
						if !candidatesEqual(buf, want) {
							t.Fatalf("%s n=%d ties=%v k=%d: KNearestAppend = %v, reference %v",
								metric.Name(), n, ties, k, buf, want)
						}
					}
				}
			}
		}
	}
}

// TestGaussianCandidatesAppendMatchesRef is the same equivalence for
// the probabilistic source.
func TestGaussianCandidatesAppendMatchesRef(t *testing.T) {
	rng := stats.NewRNG(11)
	samples := make([][]Fingerprint, 28)
	for i := range samples {
		scans := make([]Fingerprint, 3)
		for s := range scans {
			scans[s] = randomScan(rng, 6)
		}
		samples[i] = scans
	}
	g, err := NewGaussianDB(6, samples)
	if err != nil {
		t.Fatalf("NewGaussianDB: %v", err)
	}
	var buf []Candidate
	for _, k := range []int{1, 4, 8, 28, 40} {
		for trial := 0; trial < 20; trial++ {
			fp := randomScan(rng, 6)
			want := g.CandidatesRef(fp, k)
			got := g.Candidates(fp, k)
			if !candidatesEqual(got, want) {
				t.Fatalf("k=%d: Candidates = %v, reference %v", k, got, want)
			}
			buf = g.CandidatesAppend(buf, fp, k)
			if !candidatesEqual(buf, want) {
				t.Fatalf("k=%d: CandidatesAppend = %v, reference %v", k, buf, want)
			}
		}
	}
}

// TestKNearestQuantMatchesRef extends the equivalence suite to the
// quantized blocked-SoA kernel: the full-map quantized scan must be
// value-identical — dissimilarities, probabilities, and ordering, ties
// included — to the sort-based reference, across sizes that exercise
// partial trailing blocks (n % 64 != 0), multi-block maps, tie-heavy
// maps, and exact radio-map matches.
func TestKNearestQuantMatchesRef(t *testing.T) {
	rng := stats.NewRNG(19)
	for _, n := range []int{1, 2, 5, 28, 64, 65, 160, 300} {
		for _, ties := range []bool{false, true} {
			db := randomDB(t, n, 6, ties)
			if db.quant == nil {
				t.Fatalf("n=%d: Euclidean map did not build a quantized layout", n)
			}
			q := NewQuery(n)
			var buf []Candidate
			for _, k := range []int{1, 2, 3, 8, n, n + 5} {
				for trial := 0; trial < 20; trial++ {
					var fp Fingerprint
					if trial%5 == 0 {
						fp = db.At(rng.Intn(n) + 1) // exact match path
					} else {
						fp = randomScan(rng, 6)
					}
					want := db.KNearestRef(fp, k)
					var ok bool
					buf, ok = db.KNearestQuantAppend(buf, fp, k, q)
					if !ok {
						// Refusal is legal only when a component really
						// saturates (tiny maps leave little range headroom).
						if quantInRange(db, fp) {
							t.Fatalf("n=%d ties=%v k=%d: quantized path refused an in-range scan", n, ties, k)
						}
						continue
					}
					if !candidatesEqual(buf, want) {
						t.Fatalf("n=%d ties=%v k=%d: KNearestQuantAppend = %v, reference %v",
							n, ties, k, buf, want)
					}
				}
			}
		}
	}
}

// TestMaskedCandidatesMatchFilteredRef checks the masked scans of both
// sources against the executable specification: run the reference over
// the full map, keep only masked locations, take the top k, and
// re-normalize probabilities over that subset. It runs across metrics
// (Manhattan takes the exact masked scan) and block-boundary sizes.
func TestMaskedCandidatesMatchFilteredRef(t *testing.T) {
	rng := stats.NewRNG(23)
	for _, metric := range equivMetrics {
		for _, n := range []int{63, 64, 65, 128, 129, 160} {
			for _, ties := range []bool{false, true} {
				db := randomMetricDB(t, metric, n, 6, ties)
				q := NewQuery(n)
				var buf []Candidate
				for trial := 0; trial < 30; trial++ {
					q.ResetMask()
					nMask := 1 + rng.Intn(30)
					for i := 0; i < nMask; i++ {
						q.MaskLoc(rng.Intn(n) + 1)
					}
					fp := randomScan(rng, 6)
					if trial%6 == 0 {
						fp = db.At(rng.Intn(n) + 1)
					}
					for _, k := range []int{1, 3, 8, q.MaskCount(), q.MaskCount() + 4} {
						want := maskedRef(db.KNearestRef(fp, n), q, k)
						var ok bool
						buf, ok = db.CandidatesMaskedAppend(buf, fp, k, q)
						if !ok {
							t.Fatalf("masked scan refused a %d-location mask", q.MaskCount())
						}
						if !candidatesEqual(buf, want) {
							t.Fatalf("%s n=%d ties=%v k=%d mask=%d: masked = %v, filtered reference %v",
								metric.Name(), n, ties, k, q.MaskCount(), buf, want)
						}
					}
				}
			}
		}
	}
}

// maskedRef filters a full reference ranking to the mask, truncates to
// k, and re-derives the Eq. 4 probabilities over the subset.
func maskedRef(all []Candidate, q *Query, k int) []Candidate {
	var kept []Candidate
	for _, c := range all {
		if q.Masked(c.Loc) {
			kept = append(kept, c)
		}
	}
	if k > len(kept) {
		k = len(kept)
	}
	kept = kept[:k]
	assignProbs(kept)
	return kept
}

// TestGaussianMaskedMatchesFilteredRef is the masked equivalence for
// the probabilistic source, with softmax renormalization over the
// masked subset.
func TestGaussianMaskedMatchesFilteredRef(t *testing.T) {
	rng := stats.NewRNG(29)
	samples := make([][]Fingerprint, 100)
	for i := range samples {
		scans := make([]Fingerprint, 3)
		for s := range scans {
			scans[s] = randomScan(rng, 6)
		}
		samples[i] = scans
	}
	g, err := NewGaussianDB(6, samples)
	if err != nil {
		t.Fatalf("NewGaussianDB: %v", err)
	}
	q := NewQuery(100)
	var buf []Candidate
	for trial := 0; trial < 30; trial++ {
		q.ResetMask()
		for i := 0; i < 1+rng.Intn(20); i++ {
			q.MaskLoc(rng.Intn(100) + 1)
		}
		fp := randomScan(rng, 6)
		for _, k := range []int{1, 4, q.MaskCount() + 2} {
			all := g.CandidatesRef(fp, 100)
			var kept []Candidate
			for _, c := range all {
				if q.Masked(c.Loc) {
					kept = append(kept, c)
				}
			}
			kk := k
			if kk > len(kept) {
				kk = len(kept)
			}
			want := kept[:kk]
			softmaxProbs(want)
			var ok bool
			buf, ok = g.CandidatesMaskedAppend(buf, fp, k, q)
			if !ok {
				t.Fatalf("gaussian masked scan refused a %d-location mask", q.MaskCount())
			}
			if !candidatesEqual(buf, want) {
				t.Fatalf("k=%d mask=%d: masked = %v, filtered reference %v",
					k, q.MaskCount(), buf, want)
			}
		}
	}
}

// TestKNearestRightSized guards the satellite fix: the slice KNearest
// returns must not pin an n-candidate scratch array.
func TestKNearestRightSized(t *testing.T) {
	db := randomDB(t, 160, 6, false)
	fp := randomScan(stats.NewRNG(3), 6)
	for _, k := range []int{1, 8, 32} {
		got := db.KNearest(fp, k)
		if cap(got) > 2*k {
			t.Errorf("KNearest(k=%d) capacity %d pins scratch", k, cap(got))
		}
	}
	if got := db.KNearestRef(fp, 8); cap(got) > 16 {
		t.Errorf("KNearestRef capacity %d pins the full scratch array", cap(got))
	}
}

// TestKNearestAppendZeroAllocs pins the steady-state query at zero
// heap allocations for both sources.
func TestKNearestAppendZeroAllocs(t *testing.T) {
	db := randomDB(t, 160, 6, false)
	fp := randomScan(stats.NewRNG(5), 6)
	buf := db.KNearestAppend(nil, fp, 8)
	if avg := testing.AllocsPerRun(100, func() {
		buf = db.KNearestAppend(buf, fp, 8)
	}); avg != 0 {
		t.Errorf("KNearestAppend allocates %.1f per run, want 0", avg)
	}

	rng := stats.NewRNG(6)
	samples := make([][]Fingerprint, 28)
	for i := range samples {
		samples[i] = []Fingerprint{randomScan(rng, 6), randomScan(rng, 6)}
	}
	g, err := NewGaussianDB(6, samples)
	if err != nil {
		t.Fatalf("NewGaussianDB: %v", err)
	}
	gbuf := g.CandidatesAppend(nil, fp, 8)
	if avg := testing.AllocsPerRun(100, func() {
		gbuf = g.CandidatesAppend(gbuf, fp, 8)
	}); avg != 0 {
		t.Errorf("CandidatesAppend allocates %.1f per run, want 0", avg)
	}
}
