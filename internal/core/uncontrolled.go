package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Uncontrolled execution mode: the program runs at the mercy of the Go
// scheduler, as the paper's plain tsan11 runs at the mercy of the OS
// scheduler (§2: "the executions explored by the tool are at the mercy of
// the OS scheduler"). There are no Wait/Tick critical sections, no
// controlled strategies and no record/replay — just (optionally) race
// detection. With DisableRaces it degenerates to the "native" baseline:
// raw Go synchronisation with no instrumentation at all.
//
// This mode exists to reproduce the paper's tsan11 and native baseline
// columns in Tables 1-4; the tool's contribution is the controlled mode.

// uncontrolledState is the extra runtime state for uncontrolled mode.
type uncontrolledState struct {
	nextTID int32
}

func (u *uncontrolledState) init() {
	u.nextTID = 1
}

// receiveWithin receives from ch, giving up after d, and reports whether it
// received. It stops its timer on return. Under go 1.22 timer semantics,
// which this module's go line selects for its binaries, an unstopped
// time.After timer stays in the runtime's timer heap, holding its channel,
// until d has passed, so a process of many short uncontrolled runs under a
// WallTimeout of seconds would keep every run's timer alive that long and
// pay for them in each garbage collection.
func receiveWithin[T any](ch <-chan T, d time.Duration) bool {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ch:
		return true
	case <-tm.C:
		return false
	}
}

// native reports whether the runtime is the fully uninstrumented baseline.
func (rt *Runtime) native() bool {
	return rt.opts.Uncontrolled && rt.opts.DisableRaces
}

// runUncontrolled is Run for uncontrolled mode.
func (rt *Runtime) runUncontrolled(fn func(t *Thread)) (*Report, error) {
	main := newThread(rt, 0, "main")
	main.udone = make(chan struct{})
	done := make(chan struct{})
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				rt.mu.Lock()
				if rt.appErr == nil {
					rt.appErr = fmt.Errorf("core: main panicked: %v", r)
				}
				rt.mu.Unlock()
			}
		}()
		fn(main)
		close(main.udone)
	}()
	<-done

	// Process-exit semantics are unavailable without the controlled
	// scheduler; wait for stragglers up to the wall timeout.
	waited := make(chan struct{})
	go func() { rt.wg.Wait(); close(waited) }()
	var err error
	if !receiveWithin(waited, rt.opts.WallTimeout) {
		err = fmt.Errorf("core: uncontrolled run leaked threads past %v", rt.opts.WallTimeout)
	}
	rt.world.Shutdown()
	rep := &Report{
		Races:   rt.det.Reports(),
		Threads: int(atomic.LoadInt32(&rt.unc.nextTID)),
		Output:  rt.output,
	}
	rt.mu.Lock()
	if err == nil {
		err = rt.appErr
	}
	rt.mu.Unlock()
	rep.Err = err
	return rep, err
}

// uncontrolledCritical performs a visible operation without scheduling:
// pending signals are handled, then fn runs. Operation bodies take the
// detector lock themselves where they touch detector state (the stand-in
// for tsan's shadow-word atomicity).
func (t *Thread) uncontrolledCritical(fn func()) {
	rt := t.rt
	for {
		rt.mu.Lock()
		var sig int32
		have := false
		if len(t.upending) > 0 {
			sig = t.upending[0]
			t.upending = t.upending[1:]
			have = true
		}
		var h signalHandler
		if have {
			h = rt.handlers[sig]
		}
		rt.mu.Unlock()
		if !have {
			break
		}
		if h != nil {
			h(t, sig)
		}
	}
	fn()
}

func (t *Thread) uncontrolledSpawn(name string, fn func(*Thread)) *Handle {
	rt := t.rt
	ctid := TID(atomic.AddInt32(&rt.unc.nextTID, 1) - 1)
	child := newThread(rt, ctid, name)
	child.udone = make(chan struct{})
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		rt.det.OnThreadCreate(t.id, ctid)
		rt.detMu.Unlock()
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer close(child.udone)
		defer func() {
			if r := recover(); r != nil {
				rt.mu.Lock()
				if rt.appErr == nil {
					rt.appErr = fmt.Errorf("core: thread %s panicked: %v", name, r)
				}
				rt.mu.Unlock()
			}
		}()
		fn(child)
	}()
	if rt.opts.SpawnDelay > 0 {
		// Model pthread_create cost: the child gets a head start, bounded
		// by the delay, before the parent proceeds (it usually finishes
		// or blocks well before the bound in the small programs where
		// this matters).
		receiveWithin(child.udone, rt.opts.SpawnDelay)
	}
	return &Handle{t: child}
}

func (t *Thread) uncontrolledJoin(h *Handle) {
	<-h.t.udone
	if !t.rt.opts.DisableRaces {
		t.rt.detMu.Lock()
		t.rt.det.OnThreadJoin(t.id, h.t.id)
		t.rt.detMu.Unlock()
	}
}

// Uncontrolled mutexes are backed by the same native sync.Mutex as the
// native baseline, plus detector happens-before edges.
func (m *Mutex) uncontrolledLock(t *Thread) {
	rt := m.rt
	m.nmu.Lock()
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		rt.det.AcquireSnapshot(t.id, m.clock)
		rt.detMu.Unlock()
	}
}

func (m *Mutex) uncontrolledTryLock(t *Thread) bool {
	rt := m.rt
	if !m.nmu.TryLock() {
		return false
	}
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		rt.det.AcquireSnapshot(t.id, m.clock)
		rt.detMu.Unlock()
	}
	return true
}

func (m *Mutex) uncontrolledUnlock(t *Thread) {
	rt := m.rt
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		m.clock = rt.det.ReleaseSnapshot(t.id)
		rt.detMu.Unlock()
	}
	m.nmu.Unlock()
}

// Uncontrolled condition variables hand each waiter its own buffered
// channel, so a signal can only wake a thread that was registered when the
// signal fired — the POSIX no-steal guarantee that a bare counting scheme
// violates (a later waiter stealing an earlier waiter's wakeup deadlocks
// barrier patterns). The channel list has its own small lock (chmu) because
// POSIX permits signalling without holding the bound mutex.
func (c *Cond) uncontrolledWait(t *Thread, timed bool) WaitResult {
	rt := c.rt
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		c.m.clock = rt.det.ReleaseSnapshot(t.id)
		rt.detMu.Unlock()
	}
	ch := make(chan struct{}, 1)
	c.chmu.Lock()
	c.uchans = append(c.uchans, ch)
	c.chmu.Unlock()
	c.m.nmu.Unlock()

	took := true
	if timed {
		took = receiveWithin(ch, 500*time.Microsecond)
	} else {
		<-ch
	}

	c.m.nmu.Lock()
	if !took {
		// Timed out; but the signal may have raced in while reacquiring —
		// consume it if so (the waiter "eats" it, §3.2), else deregister.
		c.chmu.Lock()
		select {
		case <-ch:
			took = true
		default:
			for i, w := range c.uchans {
				if w == ch {
					c.uchans = append(c.uchans[:i], c.uchans[i+1:]...)
					break
				}
			}
		}
		c.chmu.Unlock()
	}
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		rt.det.AcquireSnapshot(t.id, c.m.clock)
		if took {
			rt.det.AcquireEdge(t.id, &c.clock)
		}
		rt.detMu.Unlock()
	}
	if took {
		return Signalled
	}
	return Timeout
}

func (c *Cond) uncontrolledSignal(t *Thread, broadcast bool) {
	rt := c.rt
	if !rt.opts.DisableRaces {
		rt.detMu.Lock()
		rt.det.ReleaseEdge(t.id, &c.clock)
		rt.detMu.Unlock()
	}
	c.chmu.Lock()
	if broadcast {
		for _, ch := range c.uchans {
			ch <- struct{}{}
		}
		c.uchans = nil
	} else if len(c.uchans) > 0 {
		c.uchans[0] <- struct{}{}
		c.uchans = c.uchans[1:]
	}
	c.chmu.Unlock()
}

// uncontrolledDeliver queues a signal for a thread in uncontrolled mode.
func (rt *Runtime) uncontrolledDeliver(t *Thread, sig int32) {
	rt.mu.Lock()
	t.upending = append(t.upending, sig)
	rt.mu.Unlock()
}
