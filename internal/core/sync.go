package core

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Mutex is an instrumented mutex. Lock is implemented as the trylock loop
// of the paper's Figure 4: each acquisition attempt is one critical
// section, and a failed attempt disables the thread in the scheduler until
// an Unlock re-enables it.
//
// Under the controlled scheduler a Mutex is error-checking, like a
// PTHREAD_MUTEX_ERRORCHECK mutex that aborts: Lock of a mutex the caller
// holds, Unlock of one it does not hold, and a thread returning while it
// holds one each fail the run at that operation, naming the mutex.
type Mutex struct {
	rt     *Runtime
	id     uint64
	name   string
	locked bool
	owner  TID
	// clock is the release snapshot published by the last Unlock. A mutex
	// can hold a snapshot (replaced, not accumulated) because each locker
	// acquires the previous holder's snapshot before releasing its own,
	// so every new snapshot dominates the one it replaces. The condvar
	// clock below cannot: POSIX lets a thread signal without ever having
	// synchronised with the condvar, so its clock must accumulate.
	clock vclock.Snapshot

	// nmu backs the mutex in the fully native (uninstrumented) baseline.
	nmu sync.Mutex
}

// NewMutex creates a mutex.
func (rt *Runtime) NewMutex(name string) *Mutex {
	m := &Mutex{rt: rt, id: rt.nextSyncID(), name: name, owner: -1}
	rt.mu.Lock()
	rt.locks = append(rt.locks, m)
	rt.mu.Unlock()
	return m
}

// Lock acquires the mutex, blocking t until available. Locking a mutex t
// already holds fails the run.
func (m *Mutex) Lock(t *Thread) {
	rt := m.rt
	if rt.opts.Uncontrolled {
		m.uncontrolledLock(t)
		return
	}
	for {
		acquired := false
		t.criticalOp(obs.KindMutexLock, m.id, m.name, func() {
			if !m.locked {
				m.locked = true
				m.owner = t.id
				t.held++
				acquired = true
				t.evArg = 1
				rt.detMu.Lock()
				rt.det.AcquireSnapshot(t.id, m.clock)
				rt.detMu.Unlock()
			} else if m.owner == t.id {
				// Waiting would disable t for good: only t could unlock.
				panic("core: lock of mutex already held by this thread: " + m.name)
			} else {
				rt.sch.MutexLockFail(t.id, m.id)
			}
		})
		if acquired {
			return
		}
		// Disabled in the scheduler; the next critical section blocks in
		// Wait until MutexUnlock re-enables us. Another thread may still
		// win the retried trylock, in which case we block again (§3.2).
	}
}

// TryLock attempts a single acquisition; it reports whether the mutex was
// acquired (false also when t already holds it).
func (m *Mutex) TryLock(t *Thread) bool {
	rt := m.rt
	if rt.opts.Uncontrolled {
		return m.uncontrolledTryLock(t)
	}
	acquired := false
	t.criticalOp(obs.KindMutexLock, m.id, m.name, func() {
		if !m.locked {
			m.locked = true
			m.owner = t.id
			t.held++
			acquired = true
			t.evArg = 1
			rt.detMu.Lock()
			rt.det.AcquireSnapshot(t.id, m.clock)
			rt.detMu.Unlock()
		}
	})
	return acquired
}

// Unlock releases the mutex and re-enables one blocked thread.
func (m *Mutex) Unlock(t *Thread) {
	rt := m.rt
	if rt.opts.Uncontrolled {
		m.uncontrolledUnlock(t)
		return
	}
	t.criticalOp(obs.KindMutexUnlock, m.id, m.name, func() {
		if !m.locked || m.owner != t.id {
			panic("core: unlock of mutex not held by this thread: " + m.name)
		}
		m.locked = false
		m.owner = -1
		t.held--
		rt.detMu.Lock()
		m.clock = rt.det.ReleaseSnapshot(t.id)
		rt.detMu.Unlock()
		rt.sch.MutexUnlock(t.id, m.id)
	})
}

// WaitResult describes why a Cond wait returned.
type WaitResult int

// Wait outcomes.
const (
	// Signalled: the waiter consumed a Signal or Broadcast.
	Signalled WaitResult = iota
	// Timeout: a timed wait returned without a signal.
	Timeout
	// Spurious: an untimed wait was interrupted (e.g. by an asynchronous
	// signal wakeup); callers re-check their predicate and wait again, as
	// with pthreads.
	Spurious
)

// Cond is an instrumented condition variable bound to a Mutex, following
// the paper's Figure 5: the wait splits into (a) a critical section that
// registers the waiter and releases the mutex, (b) the instrumented mutex
// reacquisition, and (c) a critical section that deregisters and reads the
// outcome — so other threads can be scheduled (and can acquire the mutex)
// in between.
type Cond struct {
	rt    *Runtime
	id    uint64
	name  string
	m     *Mutex
	clock vclock.Clock

	// uchans holds uncontrolled-mode (and native-mode) waiters, one
	// buffered channel each; chmu guards the list because POSIX permits
	// signalling without the bound mutex.
	chmu   sync.Mutex
	uchans []chan struct{}
}

// NewCond creates a condition variable bound to m.
func (rt *Runtime) NewCond(name string, m *Mutex) *Cond {
	return &Cond{rt: rt, id: rt.nextSyncID(), name: name, m: m}
}

// Wait atomically releases the mutex and blocks until signalled. The
// caller must hold the mutex; it holds it again on return.
func (c *Cond) Wait(t *Thread) WaitResult { return c.wait(t, false) }

// TimedWait is Wait with a timer. The timer is physical time, which from
// the scheduler's logical perspective is nondeterministic (§3.2): the
// thread stays enabled, may reacquire the mutex at any scheduling point,
// and reports Timeout if no signal arrived by then. It can still "eat" a
// signal while timed out.
func (c *Cond) TimedWait(t *Thread) WaitResult { return c.wait(t, true) }

func (c *Cond) wait(t *Thread, timed bool) WaitResult {
	rt := c.rt
	if rt.opts.Uncontrolled {
		return c.uncontrolledWait(t, timed)
	}
	t.criticalOp(obs.KindCondWait, c.id, c.name, func() {
		if !c.m.locked || c.m.owner != t.id {
			panic("core: cond wait without holding mutex: " + c.name)
		}
		rt.sch.CondWait(t.id, c.id, timed)
		c.m.locked = false
		c.m.owner = -1
		t.held--
		rt.detMu.Lock()
		c.m.clock = rt.det.ReleaseSnapshot(t.id)
		rt.detMu.Unlock()
		rt.sch.MutexUnlock(t.id, c.m.id)
	})
	c.m.Lock(t)
	var took bool
	t.criticalOp(obs.KindCondWait, c.id, c.name, func() {
		rt.sch.CondDeregister(t.id, c.id)
		took = rt.sch.CondTook(t.id)
		if took {
			t.evArg = 1
			rt.detMu.Lock()
			rt.det.AcquireEdge(t.id, &c.clock)
			rt.detMu.Unlock()
		}
	})
	switch {
	case took:
		return Signalled
	case timed:
		return Timeout
	default:
		return Spurious
	}
}

// Signal wakes one waiter.
func (c *Cond) Signal(t *Thread) {
	rt := c.rt
	if rt.opts.Uncontrolled {
		c.uncontrolledSignal(t, false)
		return
	}
	t.criticalOp(obs.KindCondSignal, c.id, c.name, func() {
		rt.detMu.Lock()
		rt.det.ReleaseEdge(t.id, &c.clock)
		rt.detMu.Unlock()
		rt.sch.CondSignal(t.id, c.id)
	})
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	rt := c.rt
	if rt.opts.Uncontrolled {
		c.uncontrolledSignal(t, true)
		return
	}
	t.criticalOp(obs.KindCondBroadcast, c.id, c.name, func() {
		rt.detMu.Lock()
		rt.det.ReleaseEdge(t.id, &c.clock)
		rt.detMu.Unlock()
		rt.sch.CondBroadcast(t.id, c.id)
	})
}

// Signal installs handler for an asynchronous signal; the installing
// thread becomes the delivery target. Binding a handler is itself a
// visible operation (§3.2).
func (t *Thread) Signal(sig int32, handler func(t *Thread, sig int32)) {
	rt := t.rt
	bind := func() {
		rt.mu.Lock()
		if rt.handlers == nil {
			// A signal Kill sends before the first handler exists finds
			// none either way, so the world's sink is registered here.
			rt.handlers = make(map[int32]signalHandler)
			rt.world.RegisterSignalSink(rt.deliverSignal)
		}
		rt.handlers[sig] = handler
		rt.sigTID = t.id
		if rt.opts.Uncontrolled {
			rt.uthreads[t.id] = t
		}
		rt.mu.Unlock()
	}
	if rt.opts.Uncontrolled {
		bind()
		return
	}
	t.criticalOp(obs.KindSigBind, uint64(uint32(sig)), "", bind)
}

// Raise synchronously raises a signal against the calling thread (the
// virtual raise(3)); the handler runs at the next visible-operation
// boundary.
func (t *Thread) Raise(sig int32) {
	if t.rt.opts.Uncontrolled {
		t.rt.uncontrolledDeliver(t, sig)
		return
	}
	t.rt.sch.DeliverSignal(t.id, sig)
}
