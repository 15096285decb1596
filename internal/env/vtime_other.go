//go:build !linux

package env

import "time"

// vtPin and vtUnpin have nothing to tune off Linux: the naps keep the
// platform's timers as they are (see vtime_linux.go).
func vtPin() bool { return false }
func vtUnpin()    {}

// vtNap waits d of wall-clock time between the advancer's samples (see
// vtime_linux.go for why Linux does not use time.Sleep).
func vtNap(d time.Duration) { time.Sleep(d) }
