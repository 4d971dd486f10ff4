package throttle

import (
	"math/rand"
	"reflect"
	"testing"
)

func synthGroup(seed int64, n, dur int) ([]Caps, [][]Demand) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]Caps, n)
	demand := make([][]Demand, n)
	for vd := range caps {
		caps[vd] = Caps{
			Tput: float64(rng.Intn(200)+50) * 1e6,
			IOPS: float64(rng.Intn(4000) + 500),
		}
		demand[vd] = make([]Demand, dur)
		for t := range demand[vd] {
			d := &demand[vd][t]
			d.ReadBps = rng.Float64() * 3e8
			d.WriteBps = rng.Float64() * 3e8
			d.ReadIOPS = rng.Float64() * 6000
			d.WriteIOPS = rng.Float64() * 6000
		}
	}
	return caps, demand
}

// TestScratchSimulateEquivalence runs several different-shaped groups
// through one Scratch and requires each result to match the allocating
// path exactly — including after the scratch has been dirtied by prior
// calls of other sizes.
func TestScratchSimulateEquivalence(t *testing.T) {
	var sc Scratch
	shapes := []struct{ n, dur int }{{4, 60}, {1, 10}, {8, 120}, {3, 0}, {4, 60}}
	for i, sh := range shapes {
		caps, demand := synthGroup(int64(i+1), sh.n, sh.dur)
		got, _ := sc.Simulate(caps, demand, nil, false)
		want := Simulate(caps, demand)
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("shape %d (%d vds, %d s): scratch result diverged", i, sh.n, sh.dur)
		}
	}
}

// normalize maps empty-but-non-nil slices to nil so DeepEqual compares
// values, not buffer provenance.
func normalize(r Result) Result {
	if len(r.Events) == 0 {
		r.Events = nil
	}
	rows := make([][]float64, len(r.QueueDelaySec))
	for i, row := range r.QueueDelaySec {
		if len(row) > 0 {
			rows[i] = row
		}
	}
	r.QueueDelaySec = rows
	return r
}

// TestScratchSimulateAllocs pins the steady-state allocation count of the
// scratch path at zero once the buffers have warmed up.
func TestScratchSimulateAllocs(t *testing.T) {
	var sc Scratch
	caps, demand := synthGroup(7, 6, 90)
	sc.Simulate(caps, demand, nil, false) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		sc.Simulate(caps, demand, nil, false)
	})
	if allocs != 0 {
		t.Fatalf("Scratch.Simulate allocated %.1f times per run, want 0", allocs)
	}
}
