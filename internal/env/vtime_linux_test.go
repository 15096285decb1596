package env

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"
)

const prGetTimerSlack = 30 // PR_GET_TIMERSLACK from <linux/prctl.h>

// timerSlack reads the calling thread's timer slack in nanoseconds.
func timerSlack(t *testing.T) uintptr {
	t.Helper()
	ns, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	if errno != 0 {
		t.Fatalf("PR_GET_TIMERSLACK: %v", errno)
	}
	return ns
}

// The advancer's naps take about what they ask: the kernel's default
// 50µs timer slack stretched a 25µs nanosleep to ~81µs on a 2-vCPU host.
func TestAdvancerNapsTakeWhatTheyAsk(t *testing.T) {
	const ask = 25 * time.Microsecond
	if !vtPin() {
		t.Skip("the kernel refused PR_SET_TIMERSLACK; the advancer naps with the default slack")
	}
	defer vtUnpin()
	naps := make([]time.Duration, 200)
	for i := range naps {
		t0 := time.Now()
		vtNap(ask)
		naps[i] = time.Since(t0)
	}
	sort.Slice(naps, func(i, j int) bool { return naps[i] < naps[j] })
	if med := naps[len(naps)/2]; med >= 2*ask {
		t.Fatalf("median %v nap took %v, want under %v", ask, med, 2*ask)
	}
}

// The advancer hands its thread back to Go's pool with the timer slack it
// found: any goroutine may run on that thread next.
func TestAdvancerRestoresTimerSlack(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := timerSlack(t)

	w := NewWorld(1)
	w.mu.Lock()
	w.vtOn = true
	w.vtKick = make(chan struct{}, 1)
	w.mu.Unlock()
	slept := make(chan error, 1)
	go func() { slept <- w.SleepVirtual(time.Second) }()
	go func() {
		// Stop the world once the advancer has polled the pending timer
		// for a while. An hour-long interval never elapses first.
		for w.PendingVirtualTimers() == 0 && len(slept) == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		w.Shutdown()
	}()
	// Run the advancer on this pinned goroutine, so that its thread is
	// the one read before and after.
	w.advanceVirtual(time.Hour)
	if err := <-slept; err != ErrWorldClosed {
		t.Fatalf("sleeper got %v, want ErrWorldClosed", err)
	}
	if after := timerSlack(t); after != before {
		t.Fatalf("timer slack %dns after the advancer, %dns before", after, before)
	}
}
