// Package bad is a lockpair fixture: acquisitions with a release missing
// on at least one path out of the function.
package bad

import "repro/internal/core"

func earlyReturn(rt *core.Runtime, t *core.Thread, cond bool) {
	mu := rt.NewMutex("mu")
	mu.Lock(t) // want lockpair
	if cond {
		return // leaks the lock
	}
	mu.Unlock(t)
}

func valueReturnLeak(rt *core.Runtime, t *core.Thread, n int) int {
	l := rt.NewMutex("l")
	l.Lock(t) // want lockpair
	if n > 0 {
		return n // leaks the lock
	}
	l.Unlock(t)
	return 0
}

func wrongReceiver(t *core.Thread, a, b *core.Mutex) {
	a.Lock(t) // want lockpair
	b.Unlock(t)
}

func neverReleased(rt *core.Runtime, t *core.Thread) {
	mu := rt.NewMutex("mu")
	mu.Lock(t) // want lockpair
}
