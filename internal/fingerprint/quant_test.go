package fingerprint

import (
	"math"
	"testing"

	"moloc/internal/stats"
)

// constDB builds a radio map whose every location has the identical
// fingerprint — the degenerate all-ties map.
func constDB(t *testing.T, n, w int, rss float64) *DB {
	t.Helper()
	samples := make([][]Fingerprint, n)
	for i := range samples {
		fp := make(Fingerprint, w)
		for a := range fp {
			fp[a] = rss
		}
		samples[i] = []Fingerprint{fp}
	}
	db, err := NewDB(Euclidean{}, w, samples)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	return db
}

// TestQuantSaturationFallsBack pins the int8 saturation edges: a query
// RSS outside the quantization range would saturate its code and void
// the error bound, so the quantized entry point must refuse — and the
// masked entry point must transparently serve the exact fallback with
// results identical to the filtered reference.
func TestQuantSaturationFallsBack(t *testing.T) {
	db := randomDB(t, 160, 6, false)
	q := NewQuery(160)
	rng := stats.NewRNG(31)
	inRange := randomScan(rng, 6)

	cases := []struct {
		name string
		fp   Fingerprint
	}{
		{"below_range", Fingerprint{-200, -60, -60, -60, -60, -60}},
		{"above_range", Fingerprint{10, -60, -60, -60, -60, -60}},
		{"all_below", Fingerprint{-500, -500, -500, -500, -500, -500}},
		{"nan_component", Fingerprint{math.NaN(), -60, -60, -60, -60, -60}},
	}
	for _, tc := range cases {
		if _, ok := db.KNearestQuantAppend(nil, tc.fp, 8, q); ok {
			t.Errorf("%s: quantized path accepted a saturating scan", tc.name)
		}
	}
	// In-range control: the quantized path must serve.
	if _, ok := db.KNearestQuantAppend(nil, inRange, 8, q); !ok {
		t.Fatalf("quantized path refused an in-range scan")
	}

	// Masked queries with saturating scans go through the exact masked
	// fallback and must still match the filtered reference. (NaN is
	// excluded: NaN distances make ordering itself undefined.)
	q.ResetMask()
	for i := 0; i < 12; i++ {
		q.MaskLoc(rng.Intn(160) + 1)
	}
	for _, tc := range cases[:3] {
		want := maskedRef(db.KNearestRef(tc.fp, 160), q, 8)
		got, ok := db.CandidatesMaskedAppend(nil, tc.fp, 8, q)
		if !ok {
			t.Fatalf("%s: masked scan refused a non-empty mask", tc.name)
		}
		if !candidatesEqual(got, want) {
			t.Errorf("%s: masked fallback = %v, filtered reference %v", tc.name, got, want)
		}
	}
}

// TestQuantAllEqualMap covers the all-ties degenerate map: every
// location equidistant from any scan. The quantized kernel can prune
// nothing (every lower bound ties every upper bound), but the result
// must still be value-identical to the reference — lowest location IDs
// win, probabilities uniform.
func TestQuantAllEqualMap(t *testing.T) {
	for _, n := range []int{1, 64, 130} {
		db := constDB(t, n, 4, -60)
		q := NewQuery(n)
		fp := Fingerprint{-55, -62, -58, -61}
		for _, k := range []int{1, 8, n} {
			want := db.KNearestRef(fp, k)
			got, ok := db.KNearestQuantAppend(nil, fp, k, q)
			if !ok {
				t.Fatalf("n=%d k=%d: quantized path refused the all-equal map", n, k)
			}
			if !candidatesEqual(got, want) {
				t.Fatalf("n=%d k=%d: quantized = %v, reference %v", n, k, got, want)
			}
		}
		// Exact match against the constant map: every location at
		// distance zero, probability mass split evenly.
		got, ok := db.KNearestQuantAppend(nil, db.At(1), 8, q)
		if !ok {
			t.Fatalf("n=%d: quantized path refused the exact-match scan", n)
		}
		if !candidatesEqual(got, db.KNearestRef(db.At(1), 8)) {
			t.Fatalf("n=%d: exact-match quantized ranking diverges from reference", n)
		}
	}
}

// TestMaskedKExceedsCandidates pins k > masked-candidate count: the
// scan returns exactly MaskCount candidates, never padding or reading
// past the mask.
func TestMaskedKExceedsCandidates(t *testing.T) {
	db := randomDB(t, 100, 6, true)
	q := NewQuery(100)
	q.MaskLoc(3)
	q.MaskLoc(64) // last lane of block 0
	q.MaskLoc(65) // first lane of block 1
	fp := randomScan(stats.NewRNG(37), 6)
	got, ok := db.CandidatesMaskedAppend(nil, fp, 50, q)
	if !ok {
		t.Fatalf("masked scan refused a 3-location mask")
	}
	if len(got) != 3 {
		t.Fatalf("k=50 over a 3-location mask returned %d candidates", len(got))
	}
	if !candidatesEqual(got, maskedRef(db.KNearestRef(fp, 100), q, 50)) {
		t.Fatalf("masked top-k diverges from filtered reference: %v", got)
	}
}

// TestMaskedEmptyAndNil pins the refusal contract the localizer's
// fallback ladder depends on: nil query or empty mask -> ok=false.
func TestMaskedEmptyAndNil(t *testing.T) {
	db := randomDB(t, 28, 6, false)
	fp := randomScan(stats.NewRNG(41), 6)
	if _, ok := db.CandidatesMaskedAppend(nil, fp, 8, nil); ok {
		t.Errorf("nil query accepted")
	}
	q := NewQuery(28)
	if _, ok := db.CandidatesMaskedAppend(nil, fp, 8, q); ok {
		t.Errorf("empty mask accepted")
	}
	q.MaskLoc(0)   // out of range, ignored
	q.MaskLoc(29)  // out of range, ignored
	q.MaskLoc(-40) // out of range, ignored
	if q.MaskCount() != 0 {
		t.Fatalf("out-of-range MaskLoc calls counted: %d", q.MaskCount())
	}
	q.MaskLoc(5)
	q.MaskLoc(5) // idempotent
	if q.MaskCount() != 1 {
		t.Fatalf("MaskCount = %d after double-masking one location", q.MaskCount())
	}
	q.ResetMask()
	if q.MaskCount() != 0 || q.Masked(5) {
		t.Fatalf("ResetMask left state behind")
	}
}

// TestUnquantizableMap: a radio map with a non-finite mean cannot build
// a quantized layout; the quantized entry point refuses and the masked
// path serves exactly.
func TestUnquantizableMap(t *testing.T) {
	samples := [][]Fingerprint{
		{Fingerprint{-60, math.Inf(-1)}},
		{Fingerprint{-70, -50}},
	}
	db, err := NewDB(Euclidean{}, 2, samples)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	if db.quant != nil {
		t.Fatalf("non-finite map built a quantized layout")
	}
	q := NewQuery(2)
	fp := Fingerprint{-60, -55}
	if _, ok := db.KNearestQuantAppend(nil, fp, 1, q); ok {
		t.Errorf("quantized path accepted an unquantizable map")
	}
	q.MaskLoc(2)
	got, ok := db.CandidatesMaskedAppend(nil, fp, 1, q)
	if !ok || len(got) != 1 || got[0].Loc != 2 {
		t.Errorf("masked exact fallback = %v ok=%v, want loc 2", got, ok)
	}
}

// TestMaskedZeroAllocs pins the gated steady state at zero heap
// allocations for both the quantized and the exact masked paths.
func TestMaskedZeroAllocs(t *testing.T) {
	db := randomDB(t, 512, 8, false)
	rng := stats.NewRNG(43)
	fp := randomScan(rng, 8)
	sat := append(Fingerprint{-300}, fp[1:]...) // forces the exact fallback
	q := NewQuery(512)
	for i := 0; i < 24; i++ {
		q.MaskLoc(rng.Intn(512) + 1)
	}
	buf, ok := db.CandidatesMaskedAppend(nil, fp, 8, q)
	if !ok {
		t.Fatalf("masked scan refused")
	}
	if avg := testing.AllocsPerRun(100, func() {
		buf, _ = db.CandidatesMaskedAppend(buf, fp, 8, q)
	}); avg != 0 {
		t.Errorf("quantized masked scan allocates %.1f per run, want 0", avg)
	}
	buf, _ = db.CandidatesMaskedAppend(buf, sat, 8, q)
	if avg := testing.AllocsPerRun(100, func() {
		buf, _ = db.CandidatesMaskedAppend(buf, sat, 8, q)
	}); avg != 0 {
		t.Errorf("exact masked fallback allocates %.1f per run, want 0", avg)
	}
	qbuf, _ := db.KNearestQuantAppend(nil, fp, 8, q)
	if avg := testing.AllocsPerRun(100, func() {
		qbuf, _ = db.KNearestQuantAppend(qbuf, fp, 8, q)
	}); avg != 0 {
		t.Errorf("full quantized scan allocates %.1f per run, want 0", avg)
	}
	// Mask maintenance itself must also settle to zero allocations.
	locs := make([]int, 24)
	for i := range locs {
		locs[i] = rng.Intn(512) + 1
	}
	if avg := testing.AllocsPerRun(100, func() {
		q.ResetMask()
		for _, l := range locs {
			q.MaskLoc(l)
		}
	}); avg != 0 {
		t.Errorf("mask reset+fill allocates %.1f per run, want 0", avg)
	}
}

// FuzzQuantVsExact cross-checks the quantized kernel and the exact
// selection scan against the sort-based reference on fuzz-chosen maps,
// scans, and masks: the exact scan always, and the quantized path
// whenever it serves, must return the reference's candidate set —
// locations, exact dissimilarities, probabilities, order.
func FuzzQuantVsExact(f *testing.F) {
	f.Add(int64(1), uint16(28), uint8(6), uint8(8), 0.0, uint8(0))
	f.Add(int64(2), uint16(130), uint8(3), uint8(4), -45.0, uint8(9))
	f.Add(int64(3), uint16(64), uint8(1), uint8(1), 30.0, uint8(200))
	f.Add(int64(4), uint16(513), uint8(8), uint8(16), 0.5, uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, ww, kk uint8, off float64, mm uint8) {
		n := 1 + int(nn)%520
		w := 1 + int(ww)%8
		k := 1 + int(kk)%20
		if math.IsNaN(off) || math.IsInf(off, 0) || math.Abs(off) > 1e6 {
			off = 0
		}
		rng := stats.NewRNG(seed)
		samples := make([][]Fingerprint, n)
		for i := range samples {
			fp := make(Fingerprint, w)
			for a := range fp {
				fp[a] = rng.Uniform(-90, -30)
			}
			samples[i] = []Fingerprint{fp}
		}
		if n >= 4 {
			copy(samples[n-1][0], samples[1][0]) // force ties
		}
		db, err := NewDB(Euclidean{}, w, samples)
		if err != nil {
			t.Fatalf("NewDB: %v", err)
		}
		fp := make(Fingerprint, w)
		for a := range fp {
			fp[a] = rng.Uniform(-90, -30) + off // off can push past saturation
		}
		q := NewQuery(n)

		want := db.KNearestRef(fp, k)
		if got := db.KNearestAppend(nil, fp, k); !candidatesEqual(got, want) {
			t.Fatalf("n=%d w=%d k=%d off=%g: exact scan = %v, reference %v", n, w, k, off, got, want)
		}
		got, ok := db.KNearestQuantAppend(nil, fp, k, q)
		if ok && !candidatesEqual(got, want) {
			t.Fatalf("n=%d w=%d k=%d off=%g: quantized = %v, reference %v", n, w, k, off, got, want)
		}

		// Masked: fuzz a mask of mm locations and compare against the
		// filtered reference.
		for i := 0; i < int(mm)%40; i++ {
			q.MaskLoc(rng.Intn(n) + 1)
		}
		if q.MaskCount() > 0 {
			mwant := maskedRef(db.KNearestRef(fp, n), q, k)
			mgot, mok := db.CandidatesMaskedAppend(nil, fp, k, q)
			if !mok {
				t.Fatalf("masked scan refused a %d-location mask", q.MaskCount())
			}
			if !candidatesEqual(mgot, mwant) {
				t.Fatalf("n=%d w=%d k=%d mask=%d: masked = %v, filtered reference %v",
					n, w, k, q.MaskCount(), mgot, mwant)
			}
		}
	})
}
