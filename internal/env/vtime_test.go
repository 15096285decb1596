package env

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestVirtualTimeAdvancesAtQuiescence(t *testing.T) {
	w := NewWorld(1)
	defer w.Shutdown()
	w.EnableVirtualTime(50 * time.Microsecond)

	start := time.Now()
	if err := w.SleepVirtual(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("virtual 3h took %v of wall clock", wall)
	}
	if got := w.VirtualNow(); got < int64(3*time.Hour) {
		t.Fatalf("virtual clock %d < 3h", got)
	}
	if got := w.ClockNanos(); got < int64(3*time.Hour) {
		t.Fatalf("ClockNanos %d not virtual", got)
	}
}

func TestVirtualTimerOrderingAndBatch(t *testing.T) {
	w := NewWorld(1)
	defer w.Shutdown()
	w.EnableVirtualTime(50 * time.Microsecond)

	delays := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	wokeAt := make([]int64, len(delays))
	var wg sync.WaitGroup
	for i, d := range delays {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			if err := w.SleepVirtual(d); err != nil {
				t.Error(err)
				return
			}
			wokeAt[i] = w.VirtualNow()
		}(i, d)
	}
	wg.Wait()
	// Every sleeper wakes at or after its own virtual deadline: the clock
	// never jumps past a pending timer without firing it.
	for i, d := range delays {
		if wokeAt[i] < int64(d) {
			t.Fatalf("sleeper %d woke at vnow=%d before its %v deadline", i, wokeAt[i], d)
		}
	}
}

func TestVirtualTimeManualAdvance(t *testing.T) {
	w := NewWorld(1)
	// No advancer: drive the clock by hand.
	w.mu.Lock()
	w.vtOn = true
	w.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- w.SleepVirtual(time.Minute) }()
	for w.PendingVirtualTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	w.AdvanceVirtual(30 * time.Second)
	select {
	case <-done:
		t.Fatal("timer fired 30s early")
	case <-time.After(5 * time.Millisecond):
	}
	w.AdvanceVirtual(30 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSleepVirtualUnblocksAtShutdown(t *testing.T) {
	w := NewWorld(1)
	w.mu.Lock()
	w.vtOn = true
	w.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- w.SleepVirtual(time.Hour) }()
	for w.PendingVirtualTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	w.Shutdown()
	if err := <-done; err != ErrWorldClosed {
		t.Fatalf("want ErrWorldClosed, got %v", err)
	}
}

func TestVirtualTimeOffIsRealSleep(t *testing.T) {
	w := NewWorld(1)
	start := time.Now()
	if err := w.SleepVirtual(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("vt-off sleep returned early")
	}
	if w.VirtualNow() != 0 {
		t.Fatal("virtual clock moved while off")
	}
}

// The timer heap pops in (deadline, seq) order, FIFO among equal
// deadlines, however pushes and pops interleave.
func TestVirtualTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h vtimerHeap
	var ref []vtimer // every pending timer, unordered
	popBoth := func() {
		best := 0
		for i, tm := range ref {
			if tm.at < ref[best].at || tm.at == ref[best].at && tm.seq < ref[best].seq {
				best = i
			}
		}
		want := ref[best]
		ref = append(ref[:best], ref[best+1:]...)
		if got := h.pop(); got.at != want.at || got.seq != want.seq {
			t.Fatalf("popped (%d, %d), want (%d, %d)", got.at, got.seq, want.at, want.seq)
		}
	}
	for seq := uint64(1); seq <= 2000; seq++ {
		tm := vtimer{at: rng.Int63n(64), seq: seq}
		h.push(tm)
		ref = append(ref, tm)
		for rng.Intn(3) == 0 && len(ref) > 0 {
			popBoth()
		}
	}
	for len(ref) > 0 {
		popBoth()
	}
	if len(h) != 0 {
		t.Fatalf("%d timers left in the heap", len(h))
	}
}

// A quiet world wakes a sleeper about one check interval after it parks:
// the advancer must not wait out the Go runtime's millisecond timer
// granularity on top of the default 100µs interval.
func TestQuietWorldWakesWithinInterval(t *testing.T) {
	w := NewWorld(1)
	defer w.Shutdown()
	w.EnableVirtualTime(0)

	waits := make([]time.Duration, 200)
	for i := range waits {
		t0 := time.Now()
		if err := w.SleepVirtual(time.Second); err != nil {
			t.Fatal(err)
		}
		waits[i] = time.Since(t0)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[len(waits)/2]; med >= 500*time.Microsecond {
		t.Fatalf("median wake %v on a quiet world at the default interval, want < 500µs", med)
	}
}

// A world mutated every few microseconds holds its clock, however long
// the activity lasts, and advances about one interval after it stops. The
// interval is wide so a descheduled mutator cannot fake a quiet period.
func TestBusyWorldHoldsVirtualClock(t *testing.T) {
	const every = 20 * time.Millisecond
	w := NewWorld(1)
	defer w.Shutdown()
	w.EnableVirtualTime(every)

	stop := make(chan struct{})
	lastBump := make(chan time.Time, 1)
	go func() {
		for {
			w.mu.Lock()
			w.bumpLocked()
			last := time.Now()
			w.mu.Unlock()
			select {
			case <-stop:
				lastBump <- last
				return
			default:
			}
			for time.Since(last) < 5*time.Microsecond {
			}
		}
	}()
	// A failed check must not leave the mutator spinning for the rest of
	// the test binary.
	stopMutator := sync.OnceFunc(func() { close(stop) })
	defer stopMutator()
	woke := make(chan time.Time, 1)
	go func() {
		// Shutdown ends the sleep of a test that already failed.
		if err := w.SleepVirtual(time.Minute); err != nil && err != ErrWorldClosed {
			t.Error(err)
		}
		woke <- time.Now()
	}()
	for w.PendingVirtualTimers() == 0 {
		time.Sleep(time.Millisecond)
	}

	select {
	case <-woke:
		t.Fatal("the clock advanced while the world was being mutated")
	case <-time.After(5 * every):
	}
	if now := w.VirtualNow(); now != 0 {
		t.Fatalf("virtual clock moved to %d while the world was being mutated", now)
	}
	stopMutator()
	last := <-lastBump
	select {
	case at := <-woke:
		if quiet := at.Sub(last); quiet < every || quiet > 10*every {
			t.Fatalf("woke %v after the last mutation, want one %v interval", quiet, every)
		}
	case <-time.After(time.Minute):
		t.Fatal("the clock never advanced after the mutations stopped")
	}
}

// advancers counts the goroutines running a world's advancer.
func advancers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte(".(*World).advanceVirtual("))
}

func waitAdvancers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for advancers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d advancer goroutines, want %d", advancers(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// The advancer exits at Shutdown and at Interrupt, whether it is parked
// with no timer pending or polling a pending one.
func TestAdvancerExitsAtStop(t *testing.T) {
	stops := map[string]func(*World){"Shutdown": (*World).Shutdown, "Interrupt": (*World).Interrupt}
	for name, stopWorld := range stops {
		for _, polling := range []bool{false, true} {
			waitAdvancers(t, 0)
			w := NewWorld(1)
			// An hour-long interval never elapses: a pending timer keeps
			// the advancer polling until the world stops.
			w.EnableVirtualTime(time.Hour)
			waitAdvancers(t, 1)
			slept := make(chan error, 1)
			if polling {
				go func() { slept <- w.SleepVirtual(time.Second) }()
				for w.PendingVirtualTimers() == 0 && len(slept) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			stopWorld(w)
			waitAdvancers(t, 0)
			if polling {
				if err := <-slept; err != ErrWorldClosed {
					t.Fatalf("%s: sleeper got %v, want ErrWorldClosed", name, err)
				}
			}
			w.Shutdown()
		}
	}
}

// A jump follows the world's last change by one interval plus a nap's
// overshoot: the advancer naps to that deadline. A sleeper on a quiet
// world waits out the whole interval, which its timer starts. With a
// sleeper pending, the world is changed three times; the sleeper wakes
// at least one interval after the last change and, in the median, well
// under a millisecond later. An advancer that sampled the world every
// quarter interval (capped at 1ms) started the interval at the first
// sample to see the change, 0–1ms after it. The changes start at an
// offset that sweeps one millisecond over the rounds, so such sampling
// overshoots by ~500µs in the median whatever its phase. The interval is
// wide so a loaded host cannot fake a quiet period.
func TestWakeFollowsLastChangeByInterval(t *testing.T) {
	const (
		every  = 4 * time.Millisecond
		gap    = every / 16 // between the changes
		rounds = 31
		limit  = every / 16 // median overshoot past the interval
	)
	w := NewWorld(1)
	defer w.Shutdown()
	w.EnableVirtualTime(every)

	time.Sleep(2 * every)
	t0 := time.Now()
	if err := w.SleepVirtual(time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < every {
		t.Fatalf("a quiet world woke its sleeper after %v, want at least the %v interval", d, every)
	}

	// change mutates the world, and reports when and whether a timer was
	// pending then.
	change := func() (time.Time, bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		at := time.Now()
		w.bumpLocked()
		return at, len(w.vtimers) > 0
	}
	// wake is when a sleeper resumed and when the advancer fired its
	// timer: firing changes the world, so the world's last change as the
	// sleeper resumes is the fire.
	type wake struct{ at, fired time.Time }
	ready := make(chan struct{})
	woke := make(chan wake)
	var overshoots, fireLags, wakeLags []time.Duration
	for i := 0; i < rounds; i++ {
		go func() {
			ready <- struct{}{}
			if err := w.SleepVirtual(time.Second); err != nil {
				t.Error(err)
			}
			at := time.Now()
			w.mu.Lock()
			fired := w.start.Add(time.Duration(w.actAt))
			w.mu.Unlock()
			woke <- wake{at, fired}
		}()
		<-ready
		var last time.Time
		var pending bool
		wait := time.Duration(i) * time.Millisecond / rounds
		for j := 0; j < 3; j++ {
			for t0 := time.Now(); time.Since(t0) < wait; {
			}
			last, pending = change()
			wait = gap
		}
		wk := <-woke
		if !pending {
			// The sleeper pushed its timer after the last change, or
			// the timer fired before it: this round measures nothing.
			continue
		}
		quiet := wk.at.Sub(last)
		if quiet < every {
			t.Fatalf("woke %v after the world's last change, want at least the %v interval", quiet, every)
		}
		overshoots = append(overshoots, quiet-every)
		fireLags = append(fireLags, wk.fired.Sub(last)-every)
		wakeLags = append(wakeLags, wk.at.Sub(wk.fired))
	}
	if len(overshoots) <= rounds/2 {
		t.Fatalf("only %d of %d rounds changed the world while the timer was pending", len(overshoots), rounds)
	}
	if med := median(overshoots); med >= limit {
		// Say where the time went: the advancer firing late past its
		// deadline (its nap overshot: host timer latency), or the sleeper
		// resuming late after the fire (goroutine scheduling).
		t.Fatalf("median wake %v past the %v interval after the world's last change, want under %v: "+
			"the advancer fired a median %v (p90 %v) past its deadline, and the sleeper resumed a median %v (p90 %v) after the fire",
			med, every, limit, median(fireLags), quantile(fireLags, 0.9), median(wakeLags), quantile(wakeLags, 0.9))
	}
}

// quantile returns the element at rank q·len(ds) of ds, sorting it in
// place: the upper median for q = 0.5.
func quantile(ds []time.Duration, q float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[int(q*float64(len(ds)))]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }
