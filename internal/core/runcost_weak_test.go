//go:build go1.24

package core_test

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestFinishedRuntimeIsCollected checks that nothing holds a finished
// Runtime: no timer, goroutine or world callback that outlives the run. A
// watchdog that Run did not stop would re-arm itself, and hold its
// Runtime, for good.
func TestFinishedRuntimeIsCollected(t *testing.T) {
	for _, e := range endings(t) {
		t.Run(e.name, func(t *testing.T) {
			wp := weak.Make(e.run(t))
			// More rounds give a watchdog check that ended the run, and
			// still holds the Runtime on its stack, time to return.
			for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
				runtime.GC()
				if wp.Value() == nil {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("the finished Runtime is still reachable")
				}
			}
		})
	}
}
