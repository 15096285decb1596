package env

import (
	"runtime"
	"syscall"
	"time"
)

// vtSlackNanos is the timer slack of the advancer's thread. Linux
// stretches every sleep of a normal thread by the thread's timer slack,
// 50µs by default, so every nap to a deadline would overshoot it by about
// that much and each wake would pay it.
const vtSlackNanos = 1000

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from <linux/prctl.h>

// setTimerSlack sets the calling thread's timer slack to ns nanoseconds
// (0 restores the thread's default) and reports whether the kernel took
// it.
func setTimerSlack(ns uintptr) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
	return errno == 0
}

// vtPin pins the calling goroutine to its thread and cuts the thread's
// timer slack to vtSlackNanos, so that vtNap sleeps about what it asks.
// It reports whether it did; if the kernel refuses the slack, the
// goroutine is left unpinned and its naps keep the default slack.
func vtPin() bool {
	runtime.LockOSThread()
	if setTimerSlack(vtSlackNanos) {
		return true
	}
	runtime.UnlockOSThread()
	return false
}

// vtUnpin undoes vtPin: the thread gets its default slack back before it
// returns to Go's pool, where any goroutine may run on it. Unpinning is
// not optional: a goroutine that exits pinned takes its thread with it.
func vtUnpin() {
	setTimerSlack(0)
	runtime.UnlockOSThread()
}

// vtNap waits d of wall-clock time, one of the advancer's naps toward its
// deadline. It calls nanosleep directly: Go's epoll netpoller rounds every
// runtime timer under a millisecond up to a whole millisecond when the
// process is idle, so time.Sleep(100µs) there takes ~1ms and every wake
// would wait out the timer instead of the quiet interval. The kernel
// still adds the thread's timer slack to each sleep, which is why the
// advancer naps on a thread vtPin has set up.
func vtNap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
