package sched

import (
	"fmt"
)

// Thread lifecycle operations (§3.2, "Thread management"). All three are
// visible operations: the runtime wraps each call in a Wait/Tick pair. They
// must therefore only be invoked by the current thread, mid-critical.

// ThreadNew registers a new thread created by parent and returns its TID.
// The new thread is enabled immediately; TIDs are assigned densely in
// creation order, which is deterministic because creation happens inside
// critical sections.
func (s *Scheduler) ThreadNew(parent TID, name string) TID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(parent, "ThreadNew")
	if max := s.opts.MaxThreads; max > 0 && len(s.threads) >= max {
		s.failLocked(fmt.Errorf("sched: thread limit exceeded: %d threads already created (MaxThreads=%d)",
			len(s.threads), max))
		s.abortLocked()
	}
	id := TID(len(s.threads))
	if name == "" {
		name = fmt.Sprintf("thread-%d", id)
	}
	// The park gate is NOT allocated here: it appears on the thread's first
	// arrival at Wait, so creating a large thread table costs one struct per
	// thread and nothing per gate until a thread actually runs.
	th := &thread{id: id, name: name, enabled: true, waitJoin: NoTID}
	s.threads = append(s.threads, th)
	s.live++
	s.strategy.onNew(s, th)
	return id
}

// ThreadJoin is called by tid wanting to join target. If target has already
// completed it returns true and tid proceeds. Otherwise it returns false
// after disabling tid and marking it as waiting on target; tid must Tick
// and re-enter Wait, where it blocks until target's ThreadDelete re-enables
// it (§3.2).
func (s *Scheduler) ThreadJoin(tid, target TID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "ThreadJoin")
	if int(target) >= len(s.threads) {
		panic(fmt.Sprintf("sched: join of unknown thread %d", target))
	}
	tgt := s.threads[target]
	if tgt.done {
		return true
	}
	th := s.threads[tid]
	th.enabled = false
	th.waitJoin = target
	tgt.joinWaiters = append(tgt.joinWaiters, tid)
	return false
}

// ThreadDelete is called by tid on completion: it re-enables any threads
// joining on tid and disables tid permanently (§3.2).
func (s *Scheduler) ThreadDelete(tid TID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "ThreadDelete")
	th := s.threads[tid]
	th.done = true
	th.enabled = false
	s.live--
	for _, w := range th.joinWaiters {
		waiter := s.threads[w]
		if !waiter.done && waiter.waitJoin == tid {
			s.enableLocked(waiter)
			waiter.waitJoin = NoTID
		}
	}
	th.joinWaiters = nil
}

func (s *Scheduler) assertCurrentLocked(tid TID, op string) {
	if s.current != tid || !s.threads[tid].midCritical {
		panic(fmt.Sprintf("sched: %s by thread %d outside its critical section (current %d)",
			op, tid, s.current))
	}
}
