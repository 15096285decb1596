package sched

// strategy is the pluggable scheduling policy (§3): given the shared state,
// choose the next thread to activate. The protocol "has been designed so
// that new scheduling strategies can be easily added" — implement these
// three hooks. All hooks run with the scheduler lock held.
type strategy interface {
	// onNew observes a newly created (enabled) thread.
	onNew(s *Scheduler, th *thread)
	// onWait observes a thread arriving at Wait.
	onWait(s *Scheduler, th *thread)
	// onEnabled observes a disabled thread being re-enabled (mutex unlock,
	// cond signal, join release, signal wakeup). Strategies that index
	// runnable threads use it to restore the thread's position.
	onEnabled(s *Scheduler, th *thread)
	// next chooses the next thread to activate, or NoTID if the strategy
	// currently has no candidate. next must not return a disabled or done
	// thread.
	next(s *Scheduler) TID
}

// randomStrategy chooses uniformly among enabled threads at every
// scheduling point, whether or not they have reached Wait (§3.1). Its
// entire interleaving is captured by the PRNG seeds, so it records nothing.
type randomStrategy struct{}

func (*randomStrategy) onNew(*Scheduler, *thread)     {}
func (*randomStrategy) onWait(*Scheduler, *thread)    {}
func (*randomStrategy) onEnabled(*Scheduler, *thread) {}

func (*randomStrategy) next(s *Scheduler) TID {
	n := 0
	for _, th := range s.threads {
		if !th.done && th.enabled {
			n++
		}
	}
	if n == 0 {
		return NoTID
	}
	k := s.rng.Intn(n)
	for _, th := range s.threads {
		if !th.done && th.enabled {
			if k == 0 {
				return th.id
			}
			k--
		}
	}
	panic("sched: random strategy lost a thread")
}

// queueStrategy is first-come-first-served over arrival at Wait (§3.1).
// The schedule depends on physical arrival order, so it is recorded in the
// QUEUE stream during record and dictated by it during replay.
//
// The decision rule is "enabled queued thread with the earliest arrival";
// the original implementation kept one FIFO and scanned past disabled
// entries on every decision, which made each Tick O(live threads) when
// many threads sat blocked (the common shape of a lock-heavy workload).
// Arrival order is instead stamped on the thread (queueSeq) and only
// *enabled* queued threads live in the runnable queue: next() pops the
// front in O(1), and a queued thread woken from a blocked state is
// re-inserted at its arrival position by onEnabled — the same decision
// sequence, without the per-tick scan. This is safe because a queued
// thread can only flip disabled→enabled: every disable site acts on the
// current thread, which was dequeued when it was chosen.
type queueStrategy struct{}

func (*queueStrategy) onNew(*Scheduler, *thread) {}

func (*queueStrategy) onWait(s *Scheduler, th *thread) {
	if s.current == th.id || th.queued {
		// Already chosen to run (including the main thread's very first
		// arrival), or already queued from an earlier arrival: enqueueing
		// would leave a stale entry that jumps the thread ahead of earlier
		// arrivals at its next Tick.
		return
	}
	th.queued = true
	th.queueSeq = s.queueSeq
	s.queueSeq++
	if th.enabled {
		s.runqPushLocked(th)
	}
	// A disabled arrival (e.g. a thread that just blocked on a mutex) keeps
	// its position via queueSeq; onEnabled inserts it into the runnable
	// queue when it is woken.
}

func (*queueStrategy) onEnabled(s *Scheduler, th *thread) {
	if th.queued && !th.inRunq {
		s.runqInsertLocked(th)
	}
}

func (*queueStrategy) next(s *Scheduler) TID {
	for s.runqHead < len(s.runq) {
		tid := s.runq[s.runqHead]
		s.runqHead++
		if s.runqHead*2 >= len(s.runq) {
			// Under steady contention the queue seldom drains; compacting
			// lets arrivals reuse its array instead of growing it.
			s.runq = s.runq[:copy(s.runq, s.runq[s.runqHead:])]
			s.runqHead = 0
		}
		th := s.threads[tid]
		th.inRunq = false
		if th.done {
			th.queued = false
			continue
		}
		if !th.enabled {
			// Possible only when queue replay ran the thread without
			// consulting the strategy (so it was never dequeued) and it then
			// blocked: skip it but keep queued/queueSeq, so onEnabled
			// restores its arrival position — matching the pre-split
			// behaviour of scanning past disabled entries without removal.
			continue
		}
		th.queued = false
		return tid
	}
	return NoTID
}

// pctStrategy implements probabilistic concurrency testing (Burckhardt et
// al., ASPLOS 2010), the paper's suggested future-work extension (§7): each
// thread gets a random priority at creation; d−1 priority change points are
// placed at random ticks; at each scheduling point the highest-priority
// enabled thread runs. Like the random strategy it is fully determined by
// the seeds.
type pctStrategy struct {
	changePoints map[uint64]int // tick -> change-point index
}

func newPCTStrategy(s *Scheduler, depth int, length uint64) *pctStrategy {
	p := &pctStrategy{changePoints: make(map[uint64]int, depth-1)}
	for i := 0; i < depth-1; i++ {
		// Draw until we find an unused tick so exactly d-1 points exist.
		for {
			t := s.rng.Uint64n(length) + 1
			if _, dup := p.changePoints[t]; !dup {
				p.changePoints[t] = i
				break
			}
		}
	}
	return p
}

func (p *pctStrategy) onNew(s *Scheduler, th *thread) {
	// Priorities d, d+1, ... in random order: use a large random priority;
	// change points assign low priorities 0..d-2.
	th.pctPriority = uint64(len(p.changePoints)) + 1 + s.rng.Uint64n(1<<30)
}

func (p *pctStrategy) onWait(*Scheduler, *thread)    {}
func (p *pctStrategy) onEnabled(*Scheduler, *thread) {}

func (p *pctStrategy) next(s *Scheduler) TID {
	if idx, ok := p.changePoints[s.tick]; ok {
		delete(p.changePoints, s.tick)
		// Deprioritise the currently highest-priority enabled thread.
		if hi := p.highest(s); hi != nil {
			hi.pctPriority = uint64(idx)
		}
	}
	if hi := p.highest(s); hi != nil {
		return hi.id
	}
	return NoTID
}

func (p *pctStrategy) highest(s *Scheduler) *thread {
	var best *thread
	for _, th := range s.threads {
		if th.done || !th.enabled {
			continue
		}
		if best == nil || th.pctPriority > best.pctPriority {
			best = th
		}
	}
	return best
}

// delayStrategy implements delay bounding (Emmi, Qadeer & Rakamarić, POPL
// 2011), the schedule-bounding family the paper's conclusion names as
// future work alongside PCT: a deterministic round-robin baseline schedule
// perturbed by at most d seeded "delay" points, at each of which the
// thread that would run is deferred behind the next enabled thread. Fully
// determined by the seeds, so — like random and PCT — it records nothing
// beyond them.
type delayStrategy struct {
	delays map[uint64]bool // tick -> delay here
	lastRR TID
}

func newDelayStrategy(s *Scheduler, budget int, length uint64) *delayStrategy {
	d := &delayStrategy{delays: make(map[uint64]bool, budget)}
	for i := 0; i < budget; i++ {
		for {
			t := s.rng.Uint64n(length) + 1
			if !d.delays[t] {
				d.delays[t] = true
				break
			}
		}
	}
	return d
}

func (d *delayStrategy) onNew(*Scheduler, *thread)     {}
func (d *delayStrategy) onWait(*Scheduler, *thread)    {}
func (d *delayStrategy) onEnabled(*Scheduler, *thread) {}

func (d *delayStrategy) next(s *Scheduler) TID {
	first := d.nextEnabledAfter(s, d.lastRR)
	if first == NoTID {
		return NoTID
	}
	pick := first
	if d.delays[s.tick+1] {
		delete(d.delays, s.tick+1)
		if second := d.nextEnabledAfter(s, first); second != NoTID {
			pick = second
		}
	}
	d.lastRR = pick
	return pick
}

// nextEnabledAfter returns the first enabled thread strictly after `from`
// in round-robin TID order (wrapping), or NoTID if none.
func (d *delayStrategy) nextEnabledAfter(s *Scheduler, from TID) TID {
	n := TID(len(s.threads))
	for i := TID(1); i <= n; i++ {
		tid := (from + i) % n
		th := s.threads[tid]
		if !th.done && th.enabled {
			return tid
		}
	}
	return NoTID
}
