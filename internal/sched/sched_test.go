package sched

import (
	"sync"
	"testing"

	"repro/internal/demo"
)

// harness drives a scheduler with goroutine-backed threads performing
// scripted visible operations.
type harness struct {
	s *Scheduler
	t *testing.T

	mu    sync.Mutex
	order []TID // visible-op completion order
	wg    sync.WaitGroup
}

func newHarness(t *testing.T, opts Options) *harness {
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{s: s, t: t}
}

// op performs one scripted visible operation on behalf of tid.
func (h *harness) op(tid TID, body func()) {
	h.s.Wait(tid)
	if body != nil {
		body()
	}
	h.mu.Lock()
	h.order = append(h.order, tid)
	h.mu.Unlock()
	h.s.Tick(tid)
}

// thread runs fn as a registered thread's goroutine, recovering aborts.
func (h *harness) thread(tid TID, fn func()) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Abort); ok {
					return
				}
				panic(r)
			}
		}()
		fn()
		h.op(tid, func() { h.s.ThreadDelete(tid) })
	}()
}

func TestProtocolSerialisesVisibleOps(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	var t1, t2 TID
	h.op(0, func() {
		t1 = h.s.ThreadNew(0, "a")
	})
	h.op(0, func() {
		t2 = h.s.ThreadNew(0, "b")
	})
	for _, tid := range []TID{t1, t2} {
		tid := tid
		h.thread(tid, func() {
			for i := 0; i < 5; i++ {
				h.op(tid, nil)
			}
		})
	}
	h.op(0, func() { h.s.ThreadDelete(0) })
	h.wg.Wait()
	if !h.s.Finished() {
		t.Error("scheduler not finished after all deletes")
	}
	// 2 creates + 2*5 ops + 3 deletes = 15 ticks.
	if got := h.s.TickCount(); got != 15 {
		t.Errorf("tick count %d, want 15", got)
	}
}

func TestQueueStrategyIsFCFS(t *testing.T) {
	// With the queue strategy, a thread performing ops back-to-back is
	// granted consecutive ticks while the other thread has not arrived.
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "a") })
	done := make(chan struct{})
	h.thread(t1, func() {
		for i := 0; i < 3; i++ {
			h.op(t1, nil)
		}
		close(done)
	})
	<-done
	h.op(0, func() { h.s.ThreadDelete(0) })
	h.wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	// order: create(0), t1 x3, t1 delete, main delete.
	want := []TID{0, t1, t1, t1, t1, 0}
	if len(h.order) != len(want) {
		t.Fatalf("order %v", h.order)
	}
	for i := range want {
		if h.order[i] != want[i] {
			t.Fatalf("order %v, want %v", h.order, want)
		}
	}
}

func TestRandomStrategyDeterministicGivenSeeds(t *testing.T) {
	run := func() []TID {
		h := newHarness(t, Options{Kind: demo.StrategyRandom, Seed1: 9, Seed2: 7})
		// Launch each thread's goroutine immediately after creating it:
		// the random strategy may schedule a freshly created thread next,
		// and an unlaunched thread would deadlock the test.
		for _, name := range []string{"a", "b"} {
			var tid TID
			h.op(0, func() { tid = h.s.ThreadNew(0, name) })
			h.thread(tid, func() {
				for i := 0; i < 10; i++ {
					h.op(tid, nil)
				}
			})
		}
		h.op(0, func() { h.s.ThreadDelete(0) })
		h.wg.Wait()
		h.mu.Lock()
		defer h.mu.Unlock()
		return append([]TID(nil), h.order...)
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random schedule not seed-deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestPCTStrategyDeterministicGivenSeeds(t *testing.T) {
	run := func() uint64 {
		h := newHarness(t, Options{Kind: demo.StrategyPCT, Seed1: 3, Seed2: 14, PCTDepth: 3, PCTLength: 64})
		for _, name := range []string{"a", "b"} {
			var tid TID
			h.op(0, func() { tid = h.s.ThreadNew(0, name) })
			h.thread(tid, func() {
				for i := 0; i < 8; i++ {
					h.op(tid, nil)
				}
			})
		}
		h.op(0, func() { h.s.ThreadDelete(0) })
		h.wg.Wait()
		h.mu.Lock()
		defer h.mu.Unlock()
		sig := uint64(0)
		for _, tid := range h.order {
			sig = sig*31 + uint64(tid) + 1
		}
		return sig
	}
	if run() != run() {
		t.Error("PCT schedule not seed-deterministic")
	}
}

func TestMutexBookkeepingWakesOne(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	const m = uint64(77)
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "w") })

	blocked := make(chan struct{})
	acquired := make(chan struct{})
	h.thread(t1, func() {
		// Simulate a failed trylock: disable, then block until woken.
		h.op(t1, func() {
			h.s.MutexLockFail(t1, m)
			close(blocked)
		})
		// This op blocks until MutexUnlock re-enables us.
		h.op(t1, nil)
		close(acquired)
	})

	// Main "holds" the mutex; release it only once the waiter is
	// registered (in real use the trylock loop guarantees this order).
	<-blocked
	h.op(0, func() { h.s.MutexUnlock(0, m) })
	<-acquired
	h.op(0, func() { h.s.ThreadDelete(0) })
	h.wg.Wait()
}

func TestJoinBlocksUntilDelete(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "child") })
	childRan := false
	h.thread(t1, func() {
		h.op(t1, func() { childRan = true })
	})
	// Blocking join: first op disables, second blocks until the child
	// exits, then ThreadJoin reports completion.
	joined := false
	for !joined {
		h.op(0, func() { joined = h.s.ThreadJoin(0, t1) })
	}
	if !childRan {
		t.Error("join returned before child ran")
	}
	h.op(0, func() { h.s.ThreadDelete(0) })
	h.wg.Wait()
}

func TestCondSignalBookkeeping(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	const c, m = uint64(5), uint64(6)
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "waiter") })
	waiting := make(chan struct{})
	woke := make(chan bool, 1)
	h.thread(t1, func() {
		h.op(t1, func() {
			h.s.CondWait(t1, c, false)
			h.s.MutexUnlock(t1, m)
			close(waiting)
		})
		// Blocks until CondSignal re-enables us.
		h.op(t1, nil)
		h.op(t1, func() {
			h.s.CondDeregister(t1, c)
			woke <- h.s.CondTook(t1)
		})
	})
	<-waiting
	h.op(0, func() { h.s.CondSignal(0, c) })
	if !<-woke {
		t.Error("waiter woke without taking the signal")
	}
	h.op(0, func() { h.s.ThreadDelete(0) })
	h.wg.Wait()
}

func TestTimedCondWaiterStaysEnabled(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	const c = uint64(9)
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "timed") })
	progressed := make(chan struct{})
	h.thread(t1, func() {
		h.op(t1, func() { h.s.CondWait(t1, c, true) })
		// A timed waiter is not disabled: this op must complete without
		// any signal.
		h.op(t1, func() { h.s.CondDeregister(t1, c) })
		close(progressed)
	})
	<-progressed
	h.op(0, func() { h.s.ThreadDelete(0) })
	h.wg.Wait()
}

func TestIdleAndDeclareDeadlock(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "blocked") })
	blocked := make(chan struct{})
	h.thread(t1, func() {
		h.op(t1, func() {
			h.s.MutexLockFail(t1, 1)
			close(blocked)
		})
		h.op(t1, nil) // blocks forever
	})
	<-blocked
	// Main also blocks.
	h.op(0, func() { h.s.MutexLockFail(0, 2) })
	go func() {
		// Main's next op would block; run it from a goroutine so we can
		// assert Idle from outside.
		defer func() { recover() }()
		h.s.Wait(0)
		h.s.Tick(0)
	}()
	for !h.s.Idle() {
	}
	h.s.DeclareDeadlock()
	if _, ok := h.s.Err().(*DeadlockError); !ok {
		t.Fatalf("expected DeadlockError, got %v", h.s.Err())
	}
	h.wg.Wait()
}

func TestStopUnblocksEveryone(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyRandom, Seed1: 1, Seed2: 2})
	var t1 TID
	h.op(0, func() { t1 = h.s.ThreadNew(0, "spinner") })
	h.thread(t1, func() {
		for {
			h.op(t1, nil)
		}
	})
	h.s.Stop(ErrShutdown)
	h.wg.Wait() // must not hang
}

func TestMaxTicksStalls(t *testing.T) {
	h := newHarness(t, Options{Kind: demo.StrategyQueue, Seed1: 1, Seed2: 2, MaxTicks: 5})
	defer func() {
		r := recover()
		ab, ok := r.(Abort)
		if !ok {
			t.Fatalf("expected Abort panic, got %v", r)
		}
		if _, ok := ab.Err.(*StalledError); !ok {
			t.Fatalf("expected StalledError, got %v", ab.Err)
		}
	}()
	for i := 0; i < 100; i++ {
		h.op(0, nil)
	}
}

func TestRecordReplayScheduleEquivalence(t *testing.T) {
	script := func(s *Scheduler) []TID {
		h := &harness{s: s, t: t}
		var ts []TID
		h.op(0, func() { ts = append(ts, s.ThreadNew(0, "a")) })
		h.op(0, func() { ts = append(ts, s.ThreadNew(0, "b")) })
		for _, tid := range ts {
			tid := tid
			h.thread(tid, func() {
				for i := 0; i < 6; i++ {
					h.op(tid, nil)
				}
			})
		}
		h.op(0, func() { s.ThreadDelete(0) })
		h.wg.Wait()
		h.mu.Lock()
		defer h.mu.Unlock()
		return append([]TID(nil), h.order...)
	}
	rec := demo.NewRecorder(demo.StrategyQueue, 4, 5)
	s1, err := New(Options{Kind: demo.StrategyQueue, Seed1: 4, Seed2: 5, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	order1 := script(s1)
	d := rec.Finish(s1.TickCount())

	rp, err := demo.NewReplayer(d, demo.ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Kind: demo.StrategyQueue, Seed1: 4, Seed2: 5, Replayer: rp})
	if err != nil {
		t.Fatal(err)
	}
	order2 := script(s2)
	if len(order1) != len(order2) {
		t.Fatalf("lengths differ: %v vs %v", order1, order2)
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("replayed schedule diverged at %d: %v vs %v", i, order1, order2)
		}
	}
}

// TestForceRescheduleBeforeFirstTick: a forced reschedule before the first
// Tick has only the main thread to choose and records nothing, since
// replay applies ASYNC entries at the end of a Tick and has none at 0. One
// after a Tick is recorded and replayed.
func TestForceRescheduleBeforeFirstTick(t *testing.T) {
	script := func(s *Scheduler, force bool) {
		h := &harness{s: s, t: t}
		if force {
			s.ForceReschedule()
		}
		h.op(0, nil)
		if force {
			s.ForceReschedule()
		}
		h.op(0, func() { s.ThreadDelete(0) })
	}
	rec := demo.NewRecorder(demo.StrategyRandom, 1, 2)
	s1, err := New(Options{Kind: demo.StrategyRandom, Seed1: 1, Seed2: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	script(s1, true)
	d := rec.Finish(s1.TickCount())
	if len(d.Asyncs) != 1 || d.Asyncs[0].Kind != demo.AsyncReschedule || d.Asyncs[0].Tick != 1 {
		t.Fatalf("recorded asyncs %v, want one reschedule at tick 1", d.Asyncs)
	}
	rp, err := demo.NewReplayer(d, demo.ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Kind: demo.StrategyRandom, Seed1: 1, Seed2: 2, Replayer: rp})
	if err != nil {
		t.Fatal(err)
	}
	script(s2, false)
	if left := rp.Cursors().AsyncsLeft; left != 0 {
		t.Errorf("replay left %d ASYNC entries unconsumed", left)
	}
}
