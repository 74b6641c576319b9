package main

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"moloc/internal/core"
	"moloc/internal/fingerprint"
	"moloc/internal/floorplan"
	"moloc/internal/geom"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/server"
	"moloc/internal/stats"
	"moloc/internal/trace"
	"moloc/internal/tracker"
)

// intervalSec is the paper's localization interval, the tracker default.
const intervalSec = 3.0

// world is one deployment the server is built over. The world itself is
// fixed (core's default seed); only the generated inputs follow --seed.
type world struct {
	sys    *core.System
	fdb    *fingerprint.DB
	numAPs int
}

// officeWorld is the paper's office hall: 28 locations, 6 APs.
func officeWorld() (*world, error) {
	cfg := core.NewConfig()
	cfg.NumTrainTraces = 50
	cfg.NumTestTraces = 2
	return buildWorld(cfg)
}

// cityWorld is the 32x32 grid (1024 locations, 12 APs) that
// BenchmarkScalability's gated tier uses.
func cityWorld() (*world, error) {
	o := floorplan.GridOptions{Cols: 32, Rows: 32, SpacingX: 5, SpacingY: 4, Margin: 3, APs: 12}
	plan, err := floorplan.Grid(o)
	if err != nil {
		return nil, err
	}
	cfg := core.NewConfig()
	cfg.Plan = plan
	cfg.AdjDist = floorplan.GridAdjDist(o)
	cfg.NumTrainTraces = 32
	cfg.NumTestTraces = 2
	return buildWorld(cfg)
}

func buildWorld(cfg core.Config) (*world, error) {
	sys, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	fdb, err := sys.Survey.BuildDB(fingerprint.Euclidean{}, sys.Model.NumAPs())
	if err != nil {
		return nil, err
	}
	return &world{sys: sys, fdb: fdb, numAPs: sys.Model.NumAPs()}, nil
}

func (w *world) newServer(o server.Options) (*server.Server, error) {
	return server.NewWithOptions(w.sys.Plan, w.fdb, w.numAPs, w.sys.MDB, w.sys.Config.Motion, o)
}

// scan is one WiFi scan, in the server's JSON shape.
type scan struct {
	T   float64   `json:"t"`
	RSS []float64 `json:"rss"`
}

// interval is one localization interval of a walk: the IMU samples and
// scans with timestamps in [end-intervalSec, end).
type interval struct {
	end     float64
	samples []sensors.Sample
	scans   []scan
}

func (iv *interval) lastScan() scan { return iv.scans[len(iv.scans)-1] }

// walk is one phone's generated input: a trace.Generator walk with 2 Hz
// scans sampled from the RF model along each leg (as molocctl does),
// cut into intervals aligned to the tracker's first event.
type walk struct {
	user trace.UserProfile
	legs []trace.Leg
	ivs  []interval
}

// genWalks generates n walks of at least minIvs intervals each. Walk i
// depends only on (seed, label, i).
func genWalks(w *world, n, minIvs int, seed int64, label string) ([]*walk, error) {
	sg, err := sensors.NewGenerator(w.sys.Config.Sensors)
	if err != nil {
		return nil, err
	}
	users := trace.DefaultUsers()
	root := stats.NewRNG(seed).Fork(label)
	legs := minIvs + 4
	out := make([]*walk, n)
	for i := range out {
		for {
			tcfg := trace.NewConfig()
			tcfg.PauseProb = 0
			tcfg.NumLegs = legs
			tg, err := trace.NewGenerator(w.sys.Plan, w.sys.Graph, sg, w.sys.Config.Motion, tcfg)
			if err != nil {
				return nil, err
			}
			rng := root.Fork(strconv.Itoa(i))
			tr := tg.Generate(users[i%len(users)], rng)
			wk := &walk{user: tr.User, legs: tr.Legs}
			wk.ivs = splitWalk(w, tr, rng.Fork("scans"))
			if len(wk.ivs) >= minIvs {
				out[i] = wk
				break
			}
			legs *= 2
			if legs > 1<<16 {
				return nil, fmt.Errorf("walk %d: cannot reach %d intervals", i, minIvs)
			}
		}
	}
	return out, nil
}

// splitWalk samples the walk's scans and partitions samples and scans
// into whole intervals; a trailing partial interval, or one without a
// scan, ends the walk.
func splitWalk(w *world, tr *trace.Trace, scanRNG *stats.RNG) []interval {
	plan := w.sys.Plan
	var all []sensors.Sample
	var scans []scan
	nextScan := math.Inf(-1)
	for _, leg := range tr.Legs {
		all = append(all, leg.Samples...)
		for _, s := range leg.Samples {
			if s.T < nextScan {
				continue
			}
			frac := (s.T - leg.T0) / (leg.T1 - leg.T0)
			pos := plan.LocPos(leg.From).Lerp(plan.LocPos(leg.To), frac)
			scans = append(scans, scan{T: s.T, RSS: w.sys.Model.Sample(pos, scanRNG)})
			nextScan = s.T + 0.5
		}
	}
	if len(all) == 0 {
		return nil
	}
	t0 := all[0].T
	last := all[len(all)-1].T
	var ivs []interval
	si, ci := 0, 0
	for k := 1; ; k++ {
		end := t0 + float64(k)*intervalSec
		if end > last {
			break
		}
		iv := interval{end: end}
		for si < len(all) && all[si].T < end {
			iv.samples = append(iv.samples, all[si])
			si++
		}
		for ci < len(scans) && scans[ci].T < end {
			iv.scans = append(iv.scans, scans[ci])
			ci++
		}
		if len(iv.scans) == 0 {
			break
		}
		ivs = append(ivs, iv)
	}
	return ivs
}

// truth is the walker's true position at t: interpolated along the leg
// being walked, or the last location after the walk ends.
func (wk *walk) truth(plan *floorplan.Plan, t float64) geom.Point {
	for _, l := range wk.legs {
		if t <= l.T1 {
			frac := 0.0
			if l.T1 > l.T0 {
				frac = math.Max(0, (t-l.T0)/(l.T1-l.T0))
			}
			return plan.LocPos(l.From).Lerp(plan.LocPos(l.To), frac)
		}
	}
	return plan.LocPos(wk.legs[len(wk.legs)-1].To)
}

// fix is the comparable part of a fix: (t, loc, moved).
type fix struct {
	T     float64 `json:"t"`
	Loc   int     `json:"loc"`
	Moved bool    `json:"moved"`
}

// newRefTracker builds the reference tracker a session's fixes are
// checked against: the same configuration handleCreate derives from the
// user's profile, on the snapshot the server serves.
func newRefTracker(w *world, snap *atomic.Pointer[motiondb.Compiled], user trace.UserProfile, gate bool) (*tracker.Tracker, error) {
	mcfg := w.sys.Config.Motion
	cfg := tracker.NewConfig(motion.StepLength(mcfg, user.HeightM, user.WeightKg))
	cfg.Motion = mcfg
	cfg.MoLoc.Gate = gate
	tk, err := tracker.New(w.sys.Plan, w.fdb, w.sys.MDB, cfg)
	if err != nil {
		return nil, err
	}
	tk.UseSnapshot(snap)
	return tk, nil
}
