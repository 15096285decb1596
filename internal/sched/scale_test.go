package sched

import (
	"testing"

	"repro/internal/demo"
)

// buildWithThreads constructs a scheduler and has the main thread create
// n-1 siblings (which never run): the "many threads, few of them running"
// shape whose setup cost the lazy park gates keep small.
func buildWithThreads(n int) *Scheduler {
	s, err := New(Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	if err != nil {
		panic(err)
	}
	for i := 1; i < n; i++ {
		s.Wait(0)
		s.ThreadNew(0, "")
		s.Tick(0)
	}
	return s
}

// TestNewAllocsIndependentOfMaxThreads pins what creating a thread costs:
// a handful of objects (thread struct, name, slice growth) and no park
// gate, which appears only when the thread first parks. The race runtime
// adds sporadic allocations of its own, which 200 runs a batch average
// away.
func TestNewAllocsIndependentOfMaxThreads(t *testing.T) {
	const active, runs = 8, 200
	allocs := testing.AllocsPerRun(runs, func() {
		buildWithThreads(active)
	})
	if allocs > 12*active {
		t.Errorf("scheduler with %d threads allocates %v objects; want <= %d", active, allocs, 12*active)
	}
}

// TestParkGateAllocatedOnFirstWait verifies the gate lifecycle: absent at
// creation, present after the thread's first arrival at Wait.
func TestParkGateAllocatedOnFirstWait(t *testing.T) {
	s := buildWithThreads(2)
	if s.threads[1].park != nil {
		t.Fatal("park gate allocated at ThreadNew; want lazy")
	}
	if s.threads[0].park == nil {
		t.Fatal("main thread parked (Wait) but has no gate")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		s.Wait(1)
		s.Tick(1)
	}()
	<-done
	s.mu.Lock()
	gate := s.threads[1].park
	s.mu.Unlock()
	if gate == nil {
		t.Fatal("park gate still nil after thread 1 completed a Wait/Tick")
	}
}
