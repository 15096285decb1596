package demo

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// Tests of the SIGNAL and ASYNC cursors: consumption keyed by (thread,
// tick) and tick, the lock-free watermark in front of them, and the
// leftover report of a strict replay.

func leftoverSignal(t *testing.T, oc Outcome) *DesyncError {
	t.Helper()
	var de *DesyncError
	if !errors.As(oc.Err, &de) || de.Stream != "SIGNAL" {
		t.Fatalf("Outcome.Err = %v, want a SIGNAL desync", oc.Err)
	}
	return de
}

// TestReplayerLeftoverIsEarliest: a strict replay that never raises
// several recorded signals reports the earliest of them, by tick and then
// thread, on every Replayer built from the demo.
func TestReplayerLeftoverIsEarliest(t *testing.T) {
	d := &Demo{Strategy: StrategyRandom, Signals: []SignalEvent{
		{TID: 2, Tick: 9, Sig: 15},
		{TID: 1, Tick: 4, Sig: 10},
		{TID: 0, Tick: 4, Sig: 12},
	}}
	for i := 0; i < 200; i++ {
		rep, err := NewReplayer(d, ReplayStrict)
		if err != nil {
			t.Fatal(err)
		}
		if de := leftoverSignal(t, rep.Outcome(20, nil)); de.TID != 0 || de.Offset != 4 {
			t.Fatalf("replayer %d reported thread %d tick %d, want thread 0 tick 4", i, de.TID, de.Offset)
		}
	}
}

// TestReplayerBeforeWatermark: below the earliest recorded entry the
// per-tick accessors return nil without allocating and without the mutex.
func TestReplayerBeforeWatermark(t *testing.T) {
	d := &Demo{Strategy: StrategyRandom,
		Signals: []SignalEvent{{TID: 0, Tick: 50, Sig: 15}},
		Asyncs:  []AsyncEvent{{Kind: AsyncReschedule, Tick: 60, TID: 1}},
	}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for tick := uint64(1); tick < 50; tick++ {
			if rep.SignalsAt(0, tick) != nil || rep.AsyncsAt(tick) != nil {
				t.Fatalf("entry returned at tick %d", tick)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("accessors below the watermark allocate %v times", allocs)
	}

	// With the mutex held elsewhere, calls below the watermark still return.
	rep.mu.Lock()
	done := make(chan struct{})
	go func() {
		rep.SignalsAt(0, 49)
		rep.AsyncsAt(59)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("an accessor below the watermark waited for the mutex")
	}
	rep.mu.Unlock()
	<-done

	if sigs := rep.SignalsAt(0, 50); !slices.Equal(sigs, []int32{15}) {
		t.Errorf("SignalsAt(0, 50) = %v", sigs)
	}
	if evs := rep.AsyncsAt(60); len(evs) != 1 || evs[0].TID != 1 {
		t.Errorf("AsyncsAt(60) = %v", evs)
	}
	if c := rep.Cursors(); c.SignalsLeft != 0 || c.AsyncsLeft != 0 {
		t.Errorf("cursors after draining: %+v", c)
	}
}

// TestReplayerUnorderedAndGroupedEntries: entries given out of tick order
// are still delivered at their ticks, and every entry recorded under one
// key is delivered together, in recorded order, exactly once.
func TestReplayerUnorderedAndGroupedEntries(t *testing.T) {
	// Forty signals for thread 1 at tick 4, interleaved with signals for
	// thread 0 alternating between ticks 9 and 5.
	d := &Demo{Strategy: StrategyRandom,
		Asyncs: []AsyncEvent{
			{Kind: AsyncSignalWakeup, Tick: 7, TID: 2},
			{Kind: AsyncReschedule, Tick: 3, TID: 0},
			{Kind: AsyncReschedule, Tick: 7, TID: 1},
		},
	}
	want := map[uint64][]int32{}
	for i := int32(0); i < 40; i++ {
		tick := uint64(9 - i%2*4)
		d.Signals = append(d.Signals, SignalEvent{TID: 0, Tick: tick, Sig: i}, SignalEvent{TID: 1, Tick: 4, Sig: 100 + i})
		want[tick] = append(want[tick], i)
		want[4] = append(want[4], 100+i)
	}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	tids := map[uint64]int32{4: 1, 5: 0, 9: 0}
	for tick := uint64(1); tick <= 10; tick++ {
		if got := rep.SignalsAt(tids[tick], tick); !slices.Equal(got, want[tick]) {
			t.Errorf("SignalsAt(%d, %d) = %v, want %v", tids[tick], tick, got, want[tick])
		}
		if got := rep.SignalsAt(tids[tick], tick); got != nil {
			t.Errorf("SignalsAt(%d, %d) delivered %v twice", tids[tick], tick, got)
		}
		var gotTIDs []int32
		for _, ev := range rep.AsyncsAt(tick) {
			gotTIDs = append(gotTIDs, ev.TID)
		}
		wantTIDs := map[uint64][]int32{3: {0}, 7: {2, 1}}[tick]
		if !slices.Equal(gotTIDs, wantTIDs) {
			t.Errorf("AsyncsAt(%d) delivered threads %v, want %v", tick, gotTIDs, wantTIDs)
		}
	}
	if oc := rep.Outcome(10, nil); oc.Err != nil {
		t.Errorf("leftovers after delivering every entry: %v", oc.Err)
	}
}

// TestReplayerMissedEntry: a signal the run never consumes pins the
// watermark, later signals still deliver, and Outcome reports the missed
// one.
func TestReplayerMissedEntry(t *testing.T) {
	d := &Demo{Strategy: StrategyRandom, Signals: []SignalEvent{
		{TID: 0, Tick: 3, Sig: 15},
		{TID: 1, Tick: 6, Sig: 10},
		{TID: 0, Tick: 8, Sig: 11},
	}}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	// Tick 3 ran on thread 1, not the recorded thread 0.
	if got := rep.SignalsAt(1, 3); got != nil {
		t.Fatalf("SignalsAt(1, 3) = %v", got)
	}
	if got := rep.SignalsAt(1, 6); !slices.Equal(got, []int32{10}) {
		t.Errorf("SignalsAt(1, 6) = %v", got)
	}
	if got := rep.SignalsAt(0, 8); !slices.Equal(got, []int32{11}) {
		t.Errorf("SignalsAt(0, 8) = %v", got)
	}
	if c := rep.Cursors(); c.SignalsLeft != 1 {
		t.Errorf("SignalsLeft = %d, want 1", c.SignalsLeft)
	}
	if de := leftoverSignal(t, rep.Outcome(10, nil)); de.TID != 0 || de.Offset != 3 {
		t.Errorf("leftover names thread %d tick %d, want thread 0 tick 3", de.TID, de.Offset)
	}
}

// TestReplayerDrainsManyEntriesInOrder: thousands of signals and async
// events at distinct ticks, recorded in reverse, come out one per tick in
// tick order, and each watermark stays ahead of the ticks consumed.
func TestReplayerDrainsManyEntriesInOrder(t *testing.T) {
	const n = 5000
	d := &Demo{Strategy: StrategyRandom}
	for i := n - 1; i >= 0; i-- {
		tick := uint64(2*i + 1)
		d.Signals = append(d.Signals, SignalEvent{TID: int32(i % 3), Tick: tick, Sig: int32(i)})
		d.Asyncs = append(d.Asyncs, AsyncEvent{Kind: AsyncReschedule, Tick: tick + 1, TID: int32(i)})
	}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	var sigs, asyncs []int32
	for tick := uint64(1); tick <= 2*n; tick++ {
		tid := int32((tick / 2) % 3)
		sigs = append(sigs, rep.SignalsAt(tid, tick)...)
		for _, ev := range rep.AsyncsAt(tick) {
			asyncs = append(asyncs, ev.TID)
		}
		if c := rep.Cursors(); c.SignalsLeft != n-int(tick+1)/2 || c.AsyncsLeft != n-int(tick)/2 {
			t.Fatalf("after tick %d: %+v", tick, c)
		}
		if rep.signals.next.Load() <= tick || rep.asyncs.next.Load() <= tick {
			t.Fatalf("after tick %d the watermarks are %d and %d", tick, rep.signals.next.Load(), rep.asyncs.next.Load())
		}
	}
	if len(sigs) != n || len(asyncs) != n {
		t.Fatalf("delivered %d signals and %d async events, want %d each", len(sigs), len(asyncs), n)
	}
	for i := 0; i < n; i++ {
		if sigs[i] != int32(i) || asyncs[i] != int32(i) {
			t.Fatalf("entry %d delivered signal %d and async thread %d", i, sigs[i], asyncs[i])
		}
	}
	if oc := rep.Outcome(2*n, nil); oc.Err != nil {
		t.Errorf("leftovers after draining: %v", oc.Err)
	}
}

// TestReplayerConcurrentConsumers: goroutines racing over the same ticks,
// some below the watermark and some at it, deliver every entry exactly
// once.
func TestReplayerConcurrentConsumers(t *testing.T) {
	const n, workers = 2000, 4
	d := &Demo{Strategy: StrategyRandom}
	for i := 0; i < n; i++ {
		d.Signals = append(d.Signals, SignalEvent{TID: 0, Tick: uint64(3*i + 1), Sig: int32(i)})
		d.Asyncs = append(d.Asyncs, AsyncEvent{Kind: AsyncReschedule, Tick: uint64(3*i + 2), TID: int32(i)})
	}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tick := uint64(1); tick <= 3*n; tick++ {
				got[w] = append(got[w], rep.SignalsAt(0, tick)...)
				for _, ev := range rep.AsyncsAt(tick) {
					got[w] = append(got[w], n+ev.TID)
				}
			}
		}(w)
	}
	wg.Wait()
	var all []int32
	for _, g := range got {
		all = append(all, g...)
	}
	slices.Sort(all)
	for i, v := range all {
		if v != int32(i) {
			t.Fatalf("delivered %d entries, want each of %d exactly once (first gap at %d)", len(all), 2*n, i)
		}
	}
	if len(all) != 2*n {
		t.Fatalf("delivered %d entries, want %d", len(all), 2*n)
	}
}
