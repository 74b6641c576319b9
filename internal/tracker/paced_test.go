package tracker

import (
	"reflect"
	"sync/atomic"
	"testing"

	"moloc/internal/localizer"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
)

// TestPacedTickEquivalence pins the server-paced tick contract: ticking
// a tracker at its LastEventTime whenever the server ticks it must
// produce fixes bit-identical to the same event sequence driven by
// client tick requests at every event time. The server ticks on a
// different (and sparser) schedule than the client, but because both
// clocks only ever advance to event times, every interval closes with
// exactly the same evidence either way.
func TestPacedTickEquivalence(t *testing.T) {
	sys := sysFixture(t)
	fdb := fullFDB(t, sys)
	lcfg := localizer.NewConfig()
	cmp, err := sys.MDB.Compile(lcfg.Alpha, lcfg.Beta)
	if err != nil {
		t.Fatal(err)
	}

	client, err := New(sys.Plan, fdb, sys.MDB, NewConfig(0.73))
	if err != nil {
		t.Fatal(err)
	}
	paced, err := New(sys.Plan, fdb, sys.MDB, NewConfig(0.73))
	if err != nil {
		t.Fatal(err)
	}
	// The view is published after the tracker attaches, so its first
	// tick adopts it: one counted swap.
	var snap atomic.Pointer[motiondb.Compiled]
	paced.UseSnapshot(&snap)
	snap.Store(cmp)

	var clientFixes, pacedFixes []Fix
	buf := make([]Fix, 0, 4)
	for i := 0; i <= 40; i++ {
		ts := float64(i) * 0.3
		smp := sensors.Sample{T: ts, Accel: 9.8}
		client.AddIMU(smp)
		paced.AddIMU(smp)
		if i%10 == 0 {
			fp := fdb.At(1 + (i/10)%3)
			client.AddScan(ts, fp)
			paced.AddScan(ts, fp)
		}
		// The client paces itself: one tick request per event.
		if fix, ok := client.Tick(ts); ok {
			clientFixes = append(clientFixes, fix)
		}
		// The server ticks on its own sparser schedule, at the
		// tracker's last event time against the published view.
		if i%7 == 0 {
			ev, started := paced.LastEventTime()
			if !started {
				t.Fatalf("event %d: tracker has events but LastEventTime reports unstarted", i)
			}
			buf = paced.TickBatch(ev, buf[:0])
			pacedFixes = append(pacedFixes, buf...)
		}
	}
	// One catch-up tick after the last event.
	ev, _ := paced.LastEventTime()
	buf = paced.TickBatch(ev, buf[:0])
	pacedFixes = append(pacedFixes, buf...)

	if len(clientFixes) == 0 {
		t.Fatal("scenario produced no fixes; the equivalence check is vacuous")
	}
	if !reflect.DeepEqual(clientFixes, pacedFixes) {
		t.Fatalf("paced fixes diverge from client-ticked fixes:\nclient: %+v\npaced:  %+v",
			clientFixes, pacedFixes)
	}
	if swaps := paced.Stats().SnapshotSwaps; swaps != 1 {
		t.Errorf("SnapshotSwaps = %d, want exactly 1 adoption of the published view", swaps)
	}
}

// TestLastEventTime pins the paced clock's source: unstarted trackers
// report no clock, and the clock is the max event time seen (scans and
// IMU both advance it, out-of-order arrivals do not rewind it).
func TestLastEventTime(t *testing.T) {
	sys := sysFixture(t)
	fdb := fullFDB(t, sys)
	tr, err := New(sys.Plan, fdb, sys.MDB, NewConfig(0.73))
	if err != nil {
		t.Fatal(err)
	}
	if _, started := tr.LastEventTime(); started {
		t.Fatal("fresh tracker claims a last event time")
	}
	tr.AddIMU(sensors.Sample{T: 1.5, Accel: 9.8})
	if ev, started := tr.LastEventTime(); !started || ev != 1.5 {
		t.Fatalf("after IMU at 1.5: (%g, %v)", ev, started)
	}
	tr.AddScan(4.0, fdb.At(1))
	if ev, _ := tr.LastEventTime(); ev != 4.0 {
		t.Fatalf("after scan at 4.0: %g", ev)
	}
	tr.AddIMU(sensors.Sample{T: 2.0, Accel: 9.8}) // late arrival
	if ev, _ := tr.LastEventTime(); ev != 4.0 {
		t.Fatalf("late IMU rewound the event clock to %g", ev)
	}
	tr.Reset()
	if _, started := tr.LastEventTime(); started {
		t.Fatal("reset tracker still claims a last event time")
	}
}
