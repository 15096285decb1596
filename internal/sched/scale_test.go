package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/demo"
)

// buildWithThreads constructs a scheduler bounded at maxThreads and has the
// main thread create n-1 siblings (which never run): the "large bound, few
// active threads" shape whose setup cost the lazy-gate fix pins.
func buildWithThreads(maxThreads, n int) *Scheduler {
	s, err := New(Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2, MaxThreads: maxThreads})
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

// TestNewAllocsIndependentOfMaxThreads pins the satellite fix: constructing
// a scheduler with MaxThreads=10240 and 8 active threads must allocate
// exactly what a MaxThreads=16 scheduler with 8 threads does — the bound
// reserves nothing, and park gates appear only when a thread first parks.
// The race runtime adds sporadic allocations of its own, which 200 runs a
// batch average away.
func TestNewAllocsIndependentOfMaxThreads(t *testing.T) {
	const active, runs = 8, 200
	small := testing.AllocsPerRun(runs, func() {
		buildWithThreads(16, active)
	})
	large := testing.AllocsPerRun(runs, func() {
		buildWithThreads(10240, active)
	})
	if small != large {
		t.Errorf("allocs depend on MaxThreads: %v at MaxThreads=16 vs %v at MaxThreads=10240", small, large)
	}
	// Per-thread cost should stay a handful of objects (thread struct, name,
	// slice growth) — far below the extra cond per thread the eager scheme
	// paid, and nothing proportional to the 10240 bound.
	if large > 12*active {
		t.Errorf("scheduler with %d active threads allocates %v objects; want <= %d", active, large, 12*active)
	}
}

// TestParkGateAllocatedOnFirstWait verifies the gate lifecycle: absent at
// creation, present after the thread's first arrival at Wait.
func TestParkGateAllocatedOnFirstWait(t *testing.T) {
	s := buildWithThreads(0, 2)
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

// TestMaxThreadsBoundEnforced verifies the bound stops the execution rather
// than growing past it.
func TestMaxThreadsBoundEnforced(t *testing.T) {
	s, err := New(Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(0)
	s.ThreadNew(0, "a") // 2nd thread: at the bound
	s.Tick(0)

	var aborted error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if ab, ok := r.(Abort); ok {
					aborted = ab.Err
					return
				}
				panic(r)
			}
		}()
		s.Wait(0)
		s.ThreadNew(0, "b") // 3rd thread: over the bound
		s.Tick(0)
	}()
	if aborted == nil {
		t.Fatal("ThreadNew past MaxThreads did not abort")
	}
	if !strings.Contains(aborted.Error(), "thread limit exceeded") {
		t.Fatalf("abort error = %v, want thread limit exceeded", aborted)
	}
	if err := s.Err(); err == nil || errors.Is(err, ErrShutdown) {
		t.Fatalf("scheduler error = %v, want thread-limit failure", err)
	}
}
