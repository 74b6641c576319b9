// Package tracker implements MoLoc's serving stage (paper Sec. V) as an
// online API: it consumes raw, timestamped IMU samples and WiFi scans
// as a phone would produce them (10 Hz sensors, ~2 Hz scans), segments
// time into fixed localization intervals (3 s in the paper), extracts
// the relative location measurement of each interval, and emits one
// location fix per interval from the MoLoc localizer.
//
// The tracker self-calibrates the compass placement offset online, in
// the spirit of Zee: whenever two consecutive fixes land on distinct
// reference locations, the interval's compass mean is compared with the
// map bearing between them.
package tracker

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"moloc/internal/fingerprint"
	"moloc/internal/floorplan"
	"moloc/internal/localizer"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
)

// Config parameterizes a tracking session.
type Config struct {
	// IntervalSec is the localization interval (3 s in the paper).
	IntervalSec float64
	// StaleScanSec is the scan staleness window: when an interval closes
	// with no scan of its own, the most recent scan may still serve as
	// its fingerprint if it arrived no more than StaleScanSec before the
	// interval started. The paper's phone scans at ~2 Hz, so a scan
	// never legitimately predates its interval by more than one interval
	// — NewConfig therefore defaults the window to one IntervalSec,
	// which tolerates a scan straddling the boundary without feeding
	// Eq. 4 long-outdated RSS. Zero is valid and means strict: only
	// scans inside the interval count.
	StaleScanSec float64
	// StepLen is the user's step length in meters, from the
	// height/weight model of motion.StepLength.
	StepLen float64
	// Motion holds the motion-processing constants.
	Motion motion.Config
	// MoLoc holds the localizer parameters.
	MoLoc localizer.Config
}

// NewConfig returns the paper's serving parameters for a user with the
// given step length.
func NewConfig(stepLen float64) Config {
	return Config{
		IntervalSec:  3,
		StaleScanSec: 3,
		StepLen:      stepLen,
		Motion:       motion.NewConfig(),
		MoLoc:        localizer.NewConfig(),
	}
}

// Validate rejects unusable tracker configuration.
func (c Config) Validate() error {
	if c.IntervalSec <= 0 {
		return fmt.Errorf("tracker: interval must be positive, got %g", c.IntervalSec)
	}
	if c.StaleScanSec < 0 || math.IsNaN(c.StaleScanSec) {
		return fmt.Errorf("tracker: scan staleness window must be >= 0, got %g", c.StaleScanSec)
	}
	if c.StepLen <= 0 || c.StepLen > 2 {
		return fmt.Errorf("tracker: implausible step length %g", c.StepLen)
	}
	if err := c.Motion.Validate(); err != nil {
		return err
	}
	return c.MoLoc.Validate()
}

// Mode says which pipeline produced a fix. The serving layer's
// degradation ladder switches sessions to ModeFingerprint when the
// motion database is unavailable (corrupt checkpoint, failing WAL
// disk): localization keeps flowing on the paper's pure fingerprint
// path (Eq. 2–4) instead of going dark.
type Mode uint8

// Fix modes.
const (
	// ModeMoLoc is the full pipeline: fingerprinting plus motion
	// matching against the motion database.
	ModeMoLoc Mode = iota
	// ModeFingerprint is the degraded pipeline: fingerprint evidence
	// only, no motion extraction or matching.
	ModeFingerprint
)

// String returns the mode tag used in API responses.
func (m Mode) String() string {
	if m == ModeFingerprint {
		return "fingerprint"
	}
	return "moloc"
}

// Fix is one localization result.
type Fix struct {
	// T is the end of the localization interval, in seconds.
	T float64
	// Loc is the estimated reference location ID.
	Loc int
	// Moved reports whether motion matching contributed (the user was
	// walking and a previous candidate set existed).
	Moved bool
	// Mode says which pipeline produced the fix.
	Mode Mode
	// Candidates is the retained candidate set, most probable first.
	Candidates []fingerprint.Candidate
}

// Stats counts a session's activity, for observability: the serving
// layer surfaces these through its metrics endpoint.
type Stats struct {
	// SamplesIn and SamplesDropped count IMU samples accepted and
	// rejected (out of order).
	SamplesIn      int64 `json:"samples_in"`
	SamplesDropped int64 `json:"samples_dropped"`
	// Scans counts WiFi scans received.
	Scans int64 `json:"scans"`
	// Fixes counts emitted fixes.
	Fixes int64 `json:"fixes"`
	// IntervalsClosed counts intervals individually closed by Tick,
	// whether or not they produced a fix; IntervalsSkipped counts the
	// empty intervals fast-forwarded in bulk when a tick arrives late.
	IntervalsClosed  int64 `json:"intervals_closed"`
	IntervalsSkipped int64 `json:"intervals_skipped"`
	// NoScanIntervals counts closed intervals with no usable scan (no
	// fix emitted); StaleServes counts fixes whose fingerprint predated
	// the interval but fell inside the staleness window.
	NoScanIntervals int64 `json:"no_scan_intervals"`
	StaleServes     int64 `json:"stale_serves"`
	// SnapshotSwaps counts retrained motion-index views this session
	// adopted from the serving layer's RCU snapshot (see UseSnapshot).
	SnapshotSwaps int64 `json:"snapshot_swaps"`
	// FingerprintOnlyFixes counts fixes emitted in ModeFingerprint
	// while the serving layer was degraded.
	FingerprintOnlyFixes int64 `json:"fingerprint_only_fixes"`
}

// Tracker is one user's tracking session.
type Tracker struct {
	cfg  Config
	plan *floorplan.Plan
	ml   *localizer.MoLoc
	est  motion.HeadingEstimator

	// snap, when non-nil, is the serving layer's RCU-published motion
	// index. Tick acquires the current view once at entry — one atomic
	// load — and swaps the localizer's compiled index when it changed,
	// so a long-lived session picks up online retraining without any
	// lock on the serving path. curCmp is the view currently adopted.
	//
	//moloc:snapshot
	snap   *atomic.Pointer[motiondb.Compiled]
	curCmp *motiondb.Compiled

	// fpOnly, when set, skips motion extraction so every fix runs the
	// pure fingerprint path (see Mode).
	fpOnly bool

	intervalStart float64
	started       bool
	lastEvent     float64
	samples       []sensors.Sample
	scans         []scanRec
	lastFix       *Fix
	stats         Stats

	// fixBuf is Tick's reused TickBatch destination.
	//moloc:reuse
	fixBuf []Fix
}

// scanRec is one buffered WiFi scan. Scans are buffered (not just the
// newest kept) so that each interval closed by a late tick is served
// by its own scan, and so a scan arriving just past a boundary cannot
// shadow the still-valid one before it.
type scanRec struct {
	t  float64
	fp fingerprint.Fingerprint
}

// maxBufferedScans bounds the scan buffer when no tick ever drains it;
// at the paper's 2 Hz scan rate it covers several minutes of catch-up.
const maxBufferedScans = 1024

// New creates a tracking session over a candidate source, motion
// database, and floor plan (used for online heading calibration).
func New(plan *floorplan.Plan, src fingerprint.CandidateSource,
	mdb *motiondb.DB, cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if plan.NumLocs() != mdb.NumLocs() {
		return nil, fmt.Errorf("tracker: plan has %d locations, motion DB %d",
			plan.NumLocs(), mdb.NumLocs())
	}
	ml, err := localizer.NewMoLoc(src, mdb, cfg.MoLoc)
	if err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, plan: plan, ml: ml}, nil
}

// UseSnapshot attaches a shared snapshot pointer published by the
// serving layer. The current view (if any) is adopted immediately;
// later publications are picked up at the next Tick. A published view
// that fails localizer validation — compiled for different parameters
// or locations — is ignored and the session keeps serving from its
// current index, so a bad publish degrades to staleness, not an outage.
func (t *Tracker) UseSnapshot(snap *atomic.Pointer[motiondb.Compiled]) {
	t.snap = snap
	if t.snap == nil {
		t.curCmp = nil
		return
	}
	if c := t.snap.Load(); c != nil && t.ml.UseCompiled(c) == nil {
		t.curCmp = c
	}
}

// SetFingerprintOnly switches the session between the full pipeline
// and pure fingerprint localization. The serving layer flips it per
// tick from its degradation state; it is not safe to call concurrently
// with Tick (the server serializes all access to a session).
func (t *Tracker) SetFingerprintOnly(on bool) { t.fpOnly = on }

// acquireSnapshot adopts a newly published motion index; called once
// per Tick so every interval closed by that tick sees one consistent
// view.
func (t *Tracker) acquireSnapshot() {
	if t.snap == nil {
		return
	}
	t.adoptCompiled(t.snap.Load())
}

// adoptCompiled swaps the localizer onto c when it is a new view. It is
// the snapshot-free half of acquireSnapshot: the server-paced path
// loads the RCU pointer once per worker sweep and hands every tracker
// in the sweep the same view through TickBatchShared, so N paced
// sessions cost one atomic load instead of N. SnapshotSwaps still
// counts per-tracker adoptions, so the amortization is observable: with
// pacing on, swaps lag far behind sweep counts.
func (t *Tracker) adoptCompiled(c *motiondb.Compiled) {
	if c == nil || c == t.curCmp {
		return
	}
	if t.ml.UseCompiled(c) == nil {
		t.curCmp = c
		t.stats.SnapshotSwaps++
	}
}

// AddIMU feeds one IMU sample. Samples must arrive in time order;
// out-of-order samples are dropped, keeping the buffer sorted so Tick
// can partition it by interval boundary.
func (t *Tracker) AddIMU(s sensors.Sample) {
	if math.IsNaN(s.T) || math.IsInf(s.T, 0) {
		t.stats.SamplesDropped++
		return
	}
	if !t.started {
		t.started = true
		t.intervalStart = s.T
		t.lastEvent = s.T
	}
	if n := len(t.samples); n > 0 && s.T < t.samples[n-1].T {
		t.stats.SamplesDropped++
		return
	}
	t.samples = append(t.samples, s)
	if s.T > t.lastEvent {
		t.lastEvent = s.T
	}
	t.stats.SamplesIn++
}

// AddScan feeds one WiFi scan. Scans must arrive in time order;
// out-of-order scans are dropped. The most recent scan of an interval
// is the fingerprint the paper's phone queries with.
func (t *Tracker) AddScan(ts float64, fp fingerprint.Fingerprint) {
	if math.IsNaN(ts) || math.IsInf(ts, 0) {
		return
	}
	if !t.started {
		t.started = true
		t.intervalStart = ts
		t.lastEvent = ts
	}
	if n := len(t.scans); n > 0 && ts < t.scans[n-1].t {
		return
	}
	if ts > t.lastEvent {
		t.lastEvent = ts
	}
	t.scans = append(t.scans, scanRec{t: ts, fp: fp})
	if len(t.scans) > maxBufferedScans {
		t.scans = append(t.scans[:0], t.scans[len(t.scans)-maxBufferedScans:]...)
	}
	t.stats.Scans++
}

// Tick closes every localization interval that now has passed and
// returns the most recent fix those intervals produced. ok is false
// when the current interval is still open or no closed interval had a
// usable scan.
//
// Scan policy: an interval [start, end) is served by the most recent
// scan with timestamp in [start-StaleScanSec, end). A scan that
// arrived shortly before the interval (within the staleness window,
// one interval by default) still serves — the paper's 2 Hz scan rate
// straddles boundaries routinely — but an older scan does not, so an
// interval genuinely without RSS yields no fix rather than feeding
// Eq. 4 outdated data.
//
// Late ticks: when now lags several intervals behind (a phone that
// slept, a batched client), buffered samples are partitioned by
// interval boundary and each interval is closed in order, so the
// posterior of Eq. 7 sees per-interval motion rather than one
// super-interval; stretches with neither samples nor scans are
// fast-forwarded in O(1) so intervalStart always catches up to now.
func (t *Tracker) Tick(now float64) (Fix, bool) {
	t.fixBuf = t.TickBatch(now, t.fixBuf[:0])
	if len(t.fixBuf) == 0 {
		return Fix{}, false
	}
	return t.fixBuf[len(t.fixBuf)-1], true
}

// TickBatch is Tick for batched clients: it closes every elapsed
// interval exactly as Tick does but appends every fix those intervals
// produced to dst (which may be nil) instead of keeping only the last,
// and returns the extended slice. The RCU motion-index snapshot is
// acquired once for the whole batch, so every interval it closes sees
// one consistent view. A sequence of TickBatch calls is equivalent to
// the same sequence of Tick calls — each elapsed interval is closed by
// whichever call first observes its end.
//
//moloc:reuse
func (t *Tracker) TickBatch(now float64, dst []Fix) []Fix {
	if !t.started || math.IsNaN(now) || math.IsInf(now, 0) {
		return dst
	}
	t.acquireSnapshot()
	return t.tickLoop(now, dst)
}

// TickBatchShared is TickBatch with the motion-index view supplied by
// the caller instead of loaded from the RCU snapshot: the server-paced
// sweep loads the snapshot once per worker and runs every due tracker
// against that one view, so a sweep over N due sessions costs one
// atomic load, not N. Passing the current snapshot value
// yields exactly TickBatch's behavior — the shared view goes through
// the same adoption (and validation) path — so paced and client-paced
// sessions produce identical fixes for identical event sequences.
//
//moloc:reuse
func (t *Tracker) TickBatchShared(cmp *motiondb.Compiled, now float64, dst []Fix) []Fix {
	if !t.started || math.IsNaN(now) || math.IsInf(now, 0) {
		return dst
	}
	t.adoptCompiled(cmp)
	return t.tickLoop(now, dst)
}

// LastEventTime returns the timestamp of the newest accepted IMU sample
// or scan; ok is false before the first event. It is the paced serving
// path's tick clock: ticking at the last event time closes exactly the
// intervals a client ticking after each upload would close, which is
// what makes server pacing bit-identical to client pacing (see
// TickBatch's equivalence contract).
func (t *Tracker) LastEventTime() (float64, bool) {
	return t.lastEvent, t.started
}

// tickLoop closes every interval elapsed at now, appending fixes to
// dst. Callers have already validated now and adopted a motion view.
func (t *Tracker) tickLoop(now float64, dst []Fix) []Fix {
	for now >= t.intervalStart+t.cfg.IntervalSec {
		start := t.intervalStart
		end := start + t.cfg.IntervalSec
		cut := sort.Search(len(t.samples), func(i int) bool {
			return t.samples[i].T >= end
		})
		if _, ok := t.scanFor(start, end); cut == 0 && !ok {
			t.fastForward(now, end)
			continue
		}
		samples := t.samples[:cut:cut]
		t.intervalStart = end
		t.stats.IntervalsClosed++
		if fix, ok := t.closeInterval(start, end, samples); ok {
			dst = append(dst, fix)
		}
		// Compact the consumed interval out of the buffer front so a
		// long-lived session reuses one backing array instead of letting
		// re-slicing walk it forward realloc by realloc.
		n := copy(t.samples, t.samples[cut:])
		t.samples = t.samples[:n]
		t.pruneScans()
	}
	return dst
}

// staleCutoff is the single definition of the staleness-window edge: a
// scan serves an interval starting at start iff its timestamp is in
// [start-StaleScanSec, end). Both the serve check (scanFor) and the
// buffer pruning (pruneScans) go through it, so the inclusive boundary
// cannot drift between them: a scan landing exactly on the edge is
// both served and retained.
func (t *Tracker) staleCutoff(start float64) float64 {
	return start - t.cfg.StaleScanSec
}

// scanFor returns the scan serving the interval [start, end): the most
// recent buffered scan before end, provided it is not older than the
// staleness window before start (see staleCutoff).
func (t *Tracker) scanFor(start, end float64) (scanRec, bool) {
	i := sort.Search(len(t.scans), func(i int) bool {
		return t.scans[i].t >= end
	}) - 1
	if i < 0 || t.scans[i].t < t.staleCutoff(start) {
		return scanRec{}, false
	}
	return t.scans[i], true
}

// pruneScans drops buffered scans too old to serve any future interval:
// every upcoming interval starts at or after intervalStart, so exactly
// the scans below staleCutoff(intervalStart) are dead.
func (t *Tracker) pruneScans() {
	cut := sort.Search(len(t.scans), func(i int) bool {
		return t.scans[i].t >= t.staleCutoff(t.intervalStart)
	})
	if cut > 0 {
		t.scans = append(t.scans[:0], t.scans[cut:]...)
	}
}

// fastForward skips the empty intervals between end-IntervalSec and
// the next event (first buffered sample, first future scan, or now) in
// one arithmetic step, so a tick arriving hours late cannot loop per
// empty interval.
func (t *Tracker) fastForward(now, end float64) {
	next := now
	if len(t.samples) > 0 && t.samples[0].T < next {
		next = t.samples[0].T
	}
	if i := sort.Search(len(t.scans), func(i int) bool {
		return t.scans[i].t >= end
	}); i < len(t.scans) && t.scans[i].t < next {
		next = t.scans[i].t
	}
	n := math.Floor((next - t.intervalStart) / t.cfg.IntervalSec)
	if n < 1 {
		n = 1
	}
	t.stats.IntervalsSkipped += int64(math.Min(n, math.MaxInt32))
	t.intervalStart += n * t.cfg.IntervalSec
}

// closeInterval runs the serving pipeline for one closed interval:
// motion extraction over its samples, localization against its scan,
// and online heading calibration.
func (t *Tracker) closeInterval(start, end float64, samples []sensors.Sample) (Fix, bool) {
	scan, ok := t.scanFor(start, end)
	if !ok {
		t.stats.NoScanIntervals++
		return Fix{}, false
	}
	if scan.t < start {
		t.stats.StaleServes++
	}
	obs := localizer.Observation{FP: scan.fp}
	var compassMean float64
	// Degraded mode skips motion extraction entirely: with obs.Motion
	// nil the localizer takes the pure fingerprint path of Eq. 2–4, so
	// a session keeps producing fixes with no motion database at all.
	if !t.fpOnly {
		if rlm, ok := motion.Extract(t.cfg.Motion, samples, start, end,
			t.cfg.StepLen, &t.est); ok {
			obs.Motion = &rlm
			compassMean = motion.MeanHeading(samples)
		}
	}

	mode := ModeMoLoc
	if t.fpOnly {
		mode = ModeFingerprint
		t.stats.FingerprintOnlyFixes++
	}
	loc := t.ml.Localize(obs)
	fix := Fix{
		T:     end,
		Loc:   loc,
		Moved: obs.Motion != nil && t.lastFix != nil,
		Mode:  mode,
		// Fixes outlive the interval (LastFix, API responses), so the
		// candidate set is copied: the localizer reuses its backing
		// buffer on the next Localize.
		Candidates: append([]fingerprint.Candidate(nil), t.ml.Candidates()...),
	}

	// Online placement calibration: a walking interval that moved the
	// estimate between distinct locations yields one (compass mean, map
	// bearing) pair.
	if obs.Motion != nil && t.lastFix != nil && t.lastFix.Loc != loc {
		t.est.Observe(compassMean, t.plan.LocBearing(t.lastFix.Loc, loc))
	}
	t.lastFix = &fix
	t.stats.Fixes++
	return fix, true
}

// LastFix returns the most recent fix, or nil before the first one.
func (t *Tracker) LastFix() *Fix { return t.lastFix }

// Stats returns the session's activity counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Reset clears the session state (candidates, calibration, buffers,
// activity counters).
func (t *Tracker) Reset() {
	t.ml.Reset()
	t.est = motion.HeadingEstimator{}
	t.samples = nil
	t.scans = nil
	t.started = false
	t.lastEvent = 0
	t.lastFix = nil
	t.fixBuf = nil
	t.stats = Stats{}
}
