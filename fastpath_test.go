// Fast-path equivalence: the compiled localization engine (PR 3) must
// produce the same fixes as the uncompiled reference transcription of
// Eq. 3–7 on recorded traces, and must not allocate at steady state.
package moloc_test

import (
	"testing"

	"moloc/internal/core"
	"moloc/internal/fingerprint"
	"moloc/internal/localizer"
	"moloc/internal/motiondb"
)

func buildSmallDeployment(t *testing.T) (*core.System, *core.Deployment) {
	t.Helper()
	cfg := core.NewConfig()
	cfg.NumTrainTraces = 30
	cfg.NumTestTraces = 8
	sys, err := core.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dep, err := sys.Deploy(sys.AllAPs())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return sys, dep
}

// replayTraces runs every test trace through both localizers and
// compares the fix sequences observation for observation.
func replayTraces(t *testing.T, dep *core.Deployment, fast, ref localizer.Localizer) {
	t.Helper()
	for ti, td := range dep.TestData {
		fast.Reset()
		ref.Reset()
		obs := localizer.Observation{FP: td.StartFP}
		if f, r := fast.Localize(obs), ref.Localize(obs); f != r {
			t.Fatalf("trace %d start: fast fix %d, reference fix %d", ti, f, r)
		}
		for li, ld := range td.Legs {
			obs := localizer.Observation{FP: ld.FP, Motion: ld.RLM}
			if f, r := fast.Localize(obs), ref.Localize(obs); f != r {
				t.Fatalf("trace %d leg %d: fast fix %d, reference fix %d", ti, li, f, r)
			}
		}
	}
}

// TestMoLocCompiledMatchesReference replays the recorded test traces
// through the compiled engine and the reference, over both fingerprint
// sources, expecting identical fixes throughout.
func TestMoLocCompiledMatchesReference(t *testing.T) {
	sys, dep := buildSmallDeployment(t)
	for _, src := range []struct {
		name string
		s    fingerprint.CandidateSource
	}{{"deterministic", dep.FDB}, {"gaussian", dep.GDB}} {
		fast, err := localizer.NewMoLoc(src.s, sys.MDB, sys.Config.MoLoc)
		if err != nil {
			t.Fatalf("%s: NewMoLoc: %v", src.name, err)
		}
		ref, err := localizer.NewMoLocReference(src.s, sys.MDB, sys.Config.MoLoc)
		if err != nil {
			t.Fatalf("%s: NewMoLocReference: %v", src.name, err)
		}
		replayTraces(t, dep, fast, ref)
	}
}

// TestLocalizeZeroAllocs pins the steady-state Localize of the
// compiled MoLoc localizer at zero heap allocations.
func TestLocalizeZeroAllocs(t *testing.T) {
	sys, dep := buildSmallDeployment(t)
	td := dep.TestData[0]
	if len(td.Legs) == 0 {
		t.Fatal("test trace has no legs")
	}
	obs := localizer.Observation{FP: td.Legs[0].FP, Motion: td.Legs[0].RLM}

	ml, err := localizer.NewMoLoc(dep.FDB, sys.MDB, sys.Config.MoLoc)
	if err != nil {
		t.Fatalf("NewMoLoc: %v", err)
	}
	ml.Localize(localizer.Observation{FP: td.StartFP})
	ml.Localize(obs) // warm the scratch buffers
	if avg := testing.AllocsPerRun(100, func() { ml.Localize(obs) }); avg != 0 {
		t.Errorf("MoLoc.Localize allocates %.1f per run, want 0", avg)
	}
}

// TestLocalizeZeroAllocsAcrossSnapshotSwaps pins the serving contract
// of the online-training path: adopting a freshly recompiled motion
// index (UseCompiled, as the tracker does once per tick when the server
// republishes its RCU snapshot) between fixes keeps Localize at zero
// heap allocations.
func TestLocalizeZeroAllocsAcrossSnapshotSwaps(t *testing.T) {
	sys, dep := buildSmallDeployment(t)
	td := dep.TestData[0]
	obs := localizer.Observation{FP: td.Legs[0].FP, Motion: td.Legs[0].RLM}

	ml, err := localizer.NewMoLoc(dep.FDB, sys.MDB, sys.Config.MoLoc)
	if err != nil {
		t.Fatalf("NewMoLoc: %v", err)
	}
	ml.Localize(localizer.Observation{FP: td.StartFP})
	ml.Localize(obs)

	// Two published views: the offline compile and an incremental
	// recompile of one mutated edge over a cloned database.
	c0, err := sys.MDB.Compile(sys.Config.MoLoc.Alpha, sys.Config.MoLoc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	db2 := sys.MDB.Clone()
	pair := db2.Pairs()[0]
	e, _ := db2.Lookup(pair[0], pair[1])
	e.N += 25
	db2.Set(pair[0], pair[1], e)
	c1, err := c0.RecompileEdges(db2, [][2]int{pair})
	if err != nil {
		t.Fatal(err)
	}

	views := [2]*motiondb.Compiled{c0, c1}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		i++
		if err := ml.UseCompiled(views[i%2]); err != nil {
			t.Fatalf("UseCompiled: %v", err)
		}
		ml.Localize(obs)
	})
	if avg != 0 {
		t.Errorf("Localize with per-run snapshot swaps allocates %.1f per run, want 0", avg)
	}
}
