//go:build !linux

package env

import "time"

// vtPin and vtUnpin have nothing to tune off Linux: the naps keep the
// platform's timers as they are (see vtime_linux.go).
func vtPin() bool { return false }
func vtUnpin()    {}

// vtNap waits d of wall-clock time, one of the advancer's naps toward its
// deadline (see vtime_linux.go for why Linux does not use time.Sleep).
func vtNap(d time.Duration) { time.Sleep(d) }
