// Package clean is a lockpair fixture: the release patterns the check
// accepts — straight-line, deferred, per-branch, aborting paths, TryLock,
// a lock taken and released in a loop, and a waived correlated-guard pair.
package clean

import "repro/internal/core"

func straightLine(rt *core.Runtime, t *core.Thread) {
	mu := rt.NewMutex("mu")
	mu.Lock(t)
	mu.Unlock(t)
}

func deferred(rt *core.Runtime, t *core.Thread, cond bool) {
	mu := rt.NewMutex("mu")
	mu.Lock(t)
	defer mu.Unlock(t)
	if cond {
		return
	}
}

func bothBranches(rt *core.Runtime, t *core.Thread, cond bool) {
	mu := rt.NewMutex("mu")
	mu.Lock(t)
	if cond {
		mu.Unlock(t)
		return
	}
	mu.Unlock(t)
}

func abortingPath(rt *core.Runtime, t *core.Thread, cond bool) {
	mu := rt.NewMutex("mu")
	mu.Lock(t)
	if cond {
		panic("fatal: the lock dies with the program")
	}
	mu.Unlock(t)
}

func tryLockUntracked(rt *core.Runtime, t *core.Thread) {
	mu := rt.NewMutex("mu")
	if mu.TryLock(t) {
		mu.Unlock(t)
	}
}

func lockInLoop(rt *core.Runtime, t *core.Thread, n int) {
	l := rt.NewMutex("l")
	for i := 0; i < n; i++ {
		l.Lock(t)
		l.Unlock(t)
	}
}

// correlatedGuards locks under `hi != lo` and unlocks under the identical
// guard — correct, but beyond a path-insensitive CFG, so it carries the
// documented waiver.
func correlatedGuards(t *core.Thread, grid []*core.Mutex, hi, lo int) {
	if hi != lo {
		grid[hi].Lock(t) //tsanrec:allow(lockpair) fixture: lock and unlock share the identical hi != lo guard
	}
	grid[lo].Lock(t)
	grid[lo].Unlock(t)
	if hi != lo {
		grid[hi].Unlock(t)
	}
}
