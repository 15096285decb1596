package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tsan"
)

// debugProgram is a small contended program: two workers increment a
// mutex-protected Var plus one unprotected Var write each, so debug runs
// have locks, Var writes and several threads to look at.
func debugProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		counter := NewVar(rt, "dbg.counter", 0)
		plain := NewVar(rt, "dbg.plain", 0)
		mu := rt.NewMutex("dbg.mu")
		var hs []*Handle
		for i := 0; i < 2; i++ {
			hs = append(hs, main.Spawn("worker", func(w *Thread) {
				for j := 0; j < 5; j++ {
					mu.Lock(w)
					counter.Update(w, func(v int) int { return v + 1 })
					mu.Unlock(w)
				}
				plain.Write(w, int(w.ID()))
			}))
		}
		for _, h := range hs {
			main.Join(h)
		}
	}
}

// recordDebugDemo records one run of debugProgram and returns the demo.
func recordDebugDemo(t *testing.T, s1, s2 uint64) *demo.Demo {
	t.Helper()
	rt := newTestRuntime(t, RecordOptions(demo.StrategyRandom, s1, s2))
	rep, err := rt.Run(debugProgram(rt))
	if err != nil {
		t.Fatalf("recording: %v", err)
	}
	return rep.Demo
}

func TestDebugPauseResumeKill(t *testing.T) {
	d := recordDebugDemo(t, 3, 5)

	dc := NewDebugControl()
	dc.SetCheckpointEvery(4)
	dc.ResumeTo(0) // start paused at tick 0
	widx := tsan.NewWriteIndex()
	opts := ReplayOptions(d)
	opts.Debug = dc
	opts.WriteIndex = widx
	rt := newTestRuntime(t, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(debugProgram(rt))
	}()

	info := dc.WaitPause()
	if !info.Paused || info.Pending.Tick != 1 {
		t.Fatalf("initial pause = %+v, want pending tick 1", info)
	}
	cp0, err := dc.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	if cp0.Tick != 0 || len(cp0.Threads) == 0 {
		t.Fatalf("tick-0 capture = %+v", cp0)
	}

	dc.ResumeTo(10)
	info = dc.WaitPause()
	if !info.Paused || info.Pending.Tick != 11 {
		t.Fatalf("pause at 10 = %+v", info)
	}
	if _, err := dc.CaptureNow(); err != nil {
		t.Fatal(err)
	}

	// Step a single thread.
	tid := info.Pending.TID
	dc.ResumeThread(tid)
	info = dc.WaitPause()
	if !info.Paused || info.Pending.TID != tid {
		t.Fatalf("step-thread pause = %+v, want thread %d", info, tid)
	}

	// Run to completion: finish releases WaitPause with the report, and
	// the periodic checkpoints cover [0, final] including both ends.
	dc.ResumeTo(^uint64(0))
	info = dc.WaitPause()
	if !info.Finished || info.Report == nil || info.Err != nil {
		t.Fatalf("finish = %+v", info)
	}
	<-done
	cps := dc.Checkpoints()
	if len(cps) < 3 || cps[0].Tick != 0 || cps[len(cps)-1].Tick != info.Report.Ticks {
		t.Fatalf("checkpoints = %d entries, first %d last %d (final tick %d)",
			len(cps), cps[0].Tick, cps[len(cps)-1].Tick, info.Report.Ticks)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i].Tick <= cps[i-1].Tick {
			t.Fatalf("checkpoints not strictly increasing: %d then %d", cps[i-1].Tick, cps[i].Tick)
		}
	}
	if sites := widx.Writes("dbg.counter"); len(sites) != 10 {
		t.Fatalf("write index has %d dbg.counter sites, want 10", len(sites))
	}

	// A killed replay stops without finishing normally.
	dc2 := NewDebugControl()
	dc2.ResumeTo(5)
	opts2 := ReplayOptions(d)
	opts2.Debug = dc2
	rt2 := newTestRuntime(t, opts2)
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		rt2.Run(debugProgram(rt2))
	}()
	if info := dc2.WaitPause(); !info.Paused {
		t.Fatalf("second run did not pause: %+v", info)
	}
	cause := errors.New("test kill")
	dc2.Kill(cause)
	<-done2
}

// TestDebugPauseDoesNotSpendWallTimeout holds a replay at a pause for
// three times its wall timeout: the held time is the debugger's, so the
// resumed run must still finish the demo.
func TestDebugPauseDoesNotSpendWallTimeout(t *testing.T) {
	d := recordDebugDemo(t, 3, 5)
	dc := NewDebugControl()
	dc.ResumeTo(3)
	opts := ReplayOptions(d)
	opts.Debug = dc
	opts.WallTimeout = 200 * time.Millisecond
	rt := newTestRuntime(t, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(debugProgram(rt))
	}()
	defer func() { <-done }()

	if info := dc.WaitPause(); !info.Paused || info.Pending.Tick != 4 {
		dc.Kill(errors.New("test over"))
		t.Fatalf("pause at 3 = %+v", info)
	}
	time.Sleep(3 * opts.WallTimeout)
	dc.ResumeTo(^uint64(0))
	info := dc.WaitPause()
	if !info.Finished || info.Err != nil {
		t.Fatalf("resumed run = %+v, want it finished without error", info)
	}
	if info.Report.Ticks != d.FinalTick {
		t.Fatalf("resumed run stopped at tick %d of %d", info.Report.Ticks, d.FinalTick)
	}
}

// TestDebugCheckpointBitIdentical replays the same demo twice with the
// same checkpoint schedule: every checkpoint must be bit-identical, and a
// doctored copy must be rejected with a named diff.
func TestDebugCheckpointBitIdentical(t *testing.T) {
	d := recordDebugDemo(t, 11, 13)
	capture := func() []Checkpoint {
		dc := NewDebugControl()
		dc.SetCheckpointEvery(4)
		opts := ReplayOptions(d)
		opts.Debug = dc
		rt := newTestRuntime(t, opts)
		if _, err := rt.Run(debugProgram(rt)); err != nil {
			t.Fatalf("replay: %v", err)
		}
		return dc.Checkpoints()
	}
	a, b := capture(), capture()
	if len(a) != len(b) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("checkpoint %d diverged: %s", i, a[i].Diff(b[i]))
		}
		if d := a[i].Diff(b[i]); d != "" {
			t.Fatalf("Equal but Diff = %q", d)
		}
	}
	bad := a[1]
	bad.PRNG.Draws++
	if a[1].Equal(bad) {
		t.Fatal("Equal missed a PRNG divergence")
	}
	if diff := a[1].Diff(bad); !strings.Contains(diff, "prng") {
		t.Fatalf("Diff = %q, want a prng diff", diff)
	}
}

func TestDebugRequiresReplay(t *testing.T) {
	opts := RecordOptions(demo.StrategyRandom, 1, 2)
	opts.Debug = NewDebugControl()
	if _, err := New(opts); err == nil {
		t.Fatal("New accepted Debug without Replay")
	}
}

func TestDebugControlRejectsReuse(t *testing.T) {
	d := recordDebugDemo(t, 7, 7)
	dc := NewDebugControl()
	opts := ReplayOptions(d)
	opts.Debug = dc
	rt := newTestRuntime(t, opts)
	if _, err := rt.Run(debugProgram(rt)); err != nil {
		t.Fatal(err)
	}
	opts2 := ReplayOptions(d)
	opts2.Debug = dc
	if _, err := New(opts2); err == nil {
		t.Fatal("New accepted a reused DebugControl")
	}
}

func TestBreakpointMatching(t *testing.T) {
	op := PendingOp{Tick: 9, TID: 2, Kind: obs.KindMutexLock, Obj: 5, Name: "mu"}
	cases := []struct {
		bp   Breakpoint
		want bool
	}{
		{Breakpoint{Var: "", Kind: obs.KindNone, TID: sched.NoTID}, true}, // wildcard
		{Breakpoint{Var: "mu", Kind: obs.KindNone, TID: sched.NoTID}, true},
		{Breakpoint{Var: "other", Kind: obs.KindNone, TID: sched.NoTID}, false},
		{Breakpoint{Kind: obs.KindMutexLock, TID: sched.NoTID}, true},
		{Breakpoint{Kind: obs.KindMutexUnlock, TID: sched.NoTID}, false},
		{Breakpoint{TID: 2}, true},
		{Breakpoint{TID: 1}, false},
		{Breakpoint{Var: "mu", Kind: obs.KindMutexLock, TID: 2}, true},
		{Breakpoint{Var: "mu", Kind: obs.KindMutexLock, TID: 3}, false},
	}
	for _, c := range cases {
		if got := c.bp.Matches(op); got != c.want {
			t.Errorf("%s matches %s = %v, want %v", c.bp, op, got, c.want)
		}
	}
}

// TestDebugBreakpointPausesAtVar: a var breakpoint pauses with the named
// operation pending, and HeldLocks sees a consistent lock state.
func TestDebugBreakpointPausesAtVar(t *testing.T) {
	d := recordDebugDemo(t, 21, 34)
	dc := NewDebugControl()
	dc.ResumeBreaks([]Breakpoint{{Var: "dbg.mu", Kind: obs.KindMutexUnlock, TID: sched.NoTID}})
	opts := ReplayOptions(d)
	opts.Debug = dc
	rt := newTestRuntime(t, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(debugProgram(rt))
	}()
	info := dc.WaitPause()
	if !info.Paused || info.Pending.Name != "dbg.mu" || info.Pending.Kind != obs.KindMutexUnlock {
		t.Fatalf("breakpoint pause = %+v", info)
	}
	// About to unlock: the lock must currently be held by the pending
	// thread.
	locks := rt.HeldLocks()
	if len(locks) != 1 || locks[0].Name != "dbg.mu" || locks[0].Owner != info.Pending.TID {
		t.Fatalf("held locks at mutex_unlock = %+v (pending %+v)", locks, info.Pending)
	}
	dc.Kill(errors.New("done"))
	<-done
}
