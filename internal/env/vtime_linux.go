package env

import (
	"syscall"
	"time"
)

// vtNap waits d of wall-clock time between the advancer's samples. It
// calls nanosleep directly: Go's epoll netpoller rounds every runtime timer
// under a millisecond up to a whole millisecond when the process is idle,
// so time.Sleep(25µs) there takes ~1ms and the advancer would measure the
// timer instead of the quiet interval.
func vtNap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
