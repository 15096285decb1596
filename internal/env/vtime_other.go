//go:build !linux

package env

import "time"

// vtNap waits d of wall-clock time between the advancer's samples (see
// vtime_linux.go for why Linux does not use time.Sleep).
func vtNap(d time.Duration) { time.Sleep(d) }
