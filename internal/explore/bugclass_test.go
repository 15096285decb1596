package explore

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/demo"
)

// abbaServer, locker and bGrabber make an AB/BA deadlock whose second
// acquisition on the left hides behind an interface call: left never
// names b, it calls grab on a locker.
type abbaServer struct {
	a, b *core.Mutex
}

type locker interface {
	grab(t *core.Thread)
}

type bGrabber struct {
	s *abbaServer
}

func (g bGrabber) grab(t *core.Thread) {
	g.s.b.Lock(t)
	g.s.b.Unlock(t)
}

// left acquires a, then (through the interface) b.
func left(t *core.Thread, s *abbaServer, l locker) {
	s.a.Lock(t)
	l.grab(t)
	s.a.Unlock(t)
}

// right acquires b, then a, closing the cycle.
func right(t *core.Thread, s *abbaServer) {
	s.b.Lock(t)
	s.a.Lock(t)
	s.a.Unlock(t)
	s.b.Unlock(t)
}

// abba runs left and right on two workers: t1 and t2.
var abba = Program{Name: "abba", Body: func(rt *core.Runtime) func(*core.Thread) {
	s := &abbaServer{a: rt.NewMutex("abba.a"), b: rt.NewMutex("abba.b")}
	return func(main *core.Thread) {
		hl := main.Spawn("left", func(t *core.Thread) { left(t, s, bGrabber{s: s}) })
		hr := main.Spawn("right", func(t *core.Thread) { right(t, s) })
		main.Join(hl)
		main.Join(hr)
	}
}}

// TestABBADeadlockFoundAndReplayed: 16 random trials find the AB/BA
// deadlock, its minimized demo reproduces it, and the report names both
// locks and their owners.
func TestABBADeadlockFoundAndReplayed(t *testing.T) {
	res, err := Run(Config{
		Program:           abba,
		Source:            &SeedRotation{MasterSeed: 1, Strategies: []demo.Strategy{demo.StrategyRandom}},
		Trials:            16,
		RescheduleQuantum: -1,
		Minimize:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var f *Failure
	for _, g := range res.Failures {
		if strings.HasPrefix(g.Signature, "deadlock:[") {
			f = g
		}
	}
	if f == nil {
		t.Fatalf("no deadlock in %d trials (%d failing)", res.Trials, res.Failing)
	}
	if !f.Reproduced {
		t.Errorf("minimized demo of %s did not reproduce it", f.Signature)
	}
	for _, want := range []string{"abba.a (0x1) by t1", "abba.b (0x2) by t2"} {
		if !strings.Contains(f.Err, want) {
			t.Errorf("deadlock report %q does not name %q", f.Err, want)
		}
	}
}

// TestPCTDeadlockReproduced: the minimizer replays a PCT or delay trial
// under that trial's depth and length, which its demo does not carry, so
// every AB/BA deadlock such a trial finds reproduces. The seeds find 2, 3
// and 4 deadlocks.
func TestPCTDeadlockReproduced(t *testing.T) {
	pct, delay := []demo.Strategy{demo.StrategyPCT}, []demo.Strategy{demo.StrategyDelay}
	sweeps := []struct {
		name  string
		seeds []uint64
		rot   SeedRotation
	}{
		{"pct, length 16", []uint64{1, 2, 3}, SeedRotation{Strategies: pct, PCTLength: 16}},
		{"delay, length 16", []uint64{1, 2, 3}, SeedRotation{Strategies: delay, PCTLength: 16}},
		{"pct, depth 5, length 16", []uint64{2, 3, 4, 5}, SeedRotation{Strategies: pct, PCTDepths: []int{5}, PCTLength: 16}},
	}
	for _, sw := range sweeps {
		found := 0
		for _, seed := range sw.seeds {
			src := sw.rot
			src.MasterSeed = seed
			res, err := Run(Config{
				Program:           abba,
				Source:            &src,
				Trials:            16,
				RescheduleQuantum: -1,
				Minimize:          true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				if !strings.HasPrefix(f.Signature, "deadlock:[") {
					continue
				}
				found++
				if !f.Reproduced {
					t.Errorf("%s, seed %d: %v trial %d's deadlock did not reproduce", sw.name, seed, f.Spec.Strategy, f.Spec.Index)
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no deadlock at seeds %v", sw.name, sw.seeds)
		}
	}
}

// droppedHandle spawns two threads and joins neither: one handle is
// discarded, the other only read.
func droppedHandle(joined bool) Program {
	work := func(t *core.Thread) {}
	return Program{Name: "dropped-handle", Body: func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			h1 := main.Spawn("worker", work)
			h2 := main.Spawn("worker", work)
			_ = h2.TID()
			if joined {
				main.Join(h1)
				main.Join(h2)
			}
		}
	}}
}

// TestDroppedHandleLeaks: a thread whose handle is dropped is still live
// when main returns in some of 16 random trials, the sweep counts those
// trials, and a leak is not a failure. Joining both handles leaks in none.
func TestDroppedHandleLeaks(t *testing.T) {
	for _, joined := range []bool{false, true} {
		res, err := Run(Config{
			Program:           droppedHandle(joined),
			Source:            &SeedRotation{MasterSeed: 1, Strategies: []demo.Strategy{demo.StrategyRandom}},
			Trials:            16,
			RescheduleQuantum: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaking := 0
		for _, o := range res.Outcomes {
			if o.Leaked > 0 {
				leaking++
			}
		}
		if res.Leaking != leaking {
			t.Errorf("joined=%v: Result.Leaking = %d, outcomes say %d", joined, res.Leaking, leaking)
		}
		if joined && leaking != 0 {
			t.Errorf("joined handles leaked in %d of %d trials", leaking, res.Trials)
		}
		if !joined && leaking == 0 {
			t.Errorf("dropped handles leaked in none of %d trials", res.Trials)
		}
		if res.Failing != 0 {
			t.Errorf("joined=%v: %d trials failed; a leak is not a failure", joined, res.Failing)
		}
	}
}
