package env

import "time"

// Virtual time. A load scenario that models hours of production traffic
// cannot wait hours of wall clock: with virtual time enabled, ClockNanos
// reads a virtual clock that stands still while anything in the world is
// happening and jumps forward to the next pending timer deadline when the
// world quiesces. External load generators schedule their arrivals with
// SleepVirtual, so "a connection every few virtual seconds for three
// virtual hours" executes as fast as the program can absorb it.
//
// Replay determinism costs nothing extra: the program observes time only
// through the recorded clock_gettime syscall (PolicySparse records Clock),
// so a replay reads the recorded virtual timestamps back and never needs
// the advancer or the load generator at all.

// vtBatchNanos coalesces timer fires: when the world quiesces, every timer
// within this window of the earliest deadline fires as one batch, so dense
// arrival schedules don't pay one quiescence round per connection.
const vtBatchNanos = int64(time.Millisecond)

// vtimer is one pending virtual-time wakeup; ch is closed when it fires.
type vtimer struct {
	at  int64
	seq uint64 // FIFO tiebreak for equal deadlines
	ch  chan struct{}
}

// vtimerHeap is a min-heap of pending timers ordered by (deadline, seq).
// It is typed rather than a container/heap.Interface, which would box
// every timer into an interface on Push and again on Pop.
type vtimerHeap []vtimer

func (h vtimerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *vtimerHeap) push(t vtimer) {
	s := append(*h, t)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// pop removes and returns the earliest timer; the heap must not be empty.
func (h *vtimerHeap) pop() vtimer {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s[n] = s[n], vtimer{}
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// EnableVirtualTime switches the world's clock to virtual time and starts
// the background advancer, which jumps the clock once checkEvery of
// wall-clock time (0 = 100µs default) has passed since the world's last
// change while a timer is pending; pushing the first pending timer counts
// as a change. With no timer pending the advancer parks until
// SleepVirtual pushes one, so an idle world costs no wakeups. On Linux the
// advancer keeps one OS thread to itself while it runs (see
// advanceVirtual). Idempotent; the advancer exits at Interrupt or
// Shutdown.
func (w *World) EnableVirtualTime(checkEvery time.Duration) {
	w.mu.Lock()
	if w.vtOn {
		w.mu.Unlock()
		return
	}
	w.vtOn = true
	w.vtKick = make(chan struct{}, 1)
	w.mu.Unlock()
	if checkEvery <= 0 {
		checkEvery = 100 * time.Microsecond
	}
	go w.advanceVirtual(checkEvery)
}

// VirtualNow returns the current virtual clock (0 when virtual time is
// off).
func (w *World) VirtualNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.vnow
}

// SleepVirtual blocks the calling (external-world) goroutine until the
// virtual clock reaches now+d. With virtual time off it degrades to a real
// sleep. Returns ErrWorldClosed if the world stops first.
func (w *World) SleepVirtual(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	w.mu.Lock()
	if !w.vtOn {
		w.mu.Unlock()
		time.Sleep(d)
		return nil
	}
	if w.closed || w.interrupted {
		w.mu.Unlock()
		return ErrWorldClosed
	}
	if len(w.vtimers) == 0 {
		// The advancer parks while no timer is pending: wake it, and
		// start its quiet interval now.
		w.actAt = int64(time.Since(w.start))
		select {
		case w.vtKick <- struct{}{}:
		default:
		}
	}
	ch := make(chan struct{})
	w.vtSeq++
	w.vtimers.push(vtimer{at: w.vnow + int64(d), seq: w.vtSeq, ch: ch})
	stop := w.stopCh
	w.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-stop:
		return ErrWorldClosed
	}
}

// PendingVirtualTimers reports how many virtual-time sleepers are parked
// (diagnostics and test synchronisation).
func (w *World) PendingVirtualTimers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.vtimers)
}

// AdvanceVirtual manually advances the virtual clock by d, firing every
// timer that comes due (test helper; the advancer goroutine does this
// automatically at quiescence).
func (w *World) AdvanceVirtual(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.vnow += int64(d)
	w.fireDueLocked(w.vnow)
}

// fireDueLocked pops and fires every timer with deadline <= upto.
func (w *World) fireDueLocked(upto int64) {
	fired := false
	for len(w.vtimers) > 0 && w.vtimers[0].at <= upto {
		tm := w.vtimers.pop()
		if tm.at > w.vnow {
			w.vnow = tm.at
		}
		close(tm.ch)
		fired = true
	}
	if fired {
		w.bumpLocked()
	}
}

// vtMaxNap caps each of the advancer's naps, so it notices Interrupt or
// Shutdown within a millisecond whatever the interval.
const vtMaxNap = time.Millisecond

// advanceVirtual is the quiescence advancer. While no timer is pending it
// parks on vtKick, which SleepVirtual signals when it pushes the first
// one. Otherwise it naps until one interval after actAt, the world's last
// change (vtNap: nanosleep on Linux, whose netpoller would stretch a
// runtime timer under 1ms to a whole millisecond). If the world changed
// in the meantime it naps again to the new deadline; once the deadline
// has passed it jumps the clock to the earliest timer and fires the batch
// within vtBatchNanos of it. The world has therefore been untouched for at
// least one interval at every jump, and a jump follows the world's last
// change by the interval plus one nap's overshoot. On Linux it runs
// pinned to one thread whose timer slack vtPin cuts to 1µs, so a nap
// overshoots by a few µs rather than the default 50µs slack, and it hands
// the thread back as it found it when it exits. Program threads running
// pure compute don't hold the clock back (they don't mutate the world),
// which is the same arrival-vs-compute nondeterminism a real environment
// has — and the recording captures whichever interleaving happened.
func (w *World) advanceVirtual(every time.Duration) {
	if vtPin() {
		defer vtUnpin()
	}
	for {
		w.mu.Lock()
		if w.closed || w.interrupted {
			w.mu.Unlock()
			return
		}
		if len(w.vtimers) == 0 {
			w.mu.Unlock()
			select {
			case <-w.stopCh:
				return
			case <-w.vtKick:
			}
			continue
		}
		wait := time.Duration(w.actAt-int64(time.Since(w.start))) + every
		if wait <= 0 {
			base := max(w.vtimers[0].at, w.vnow)
			w.vnow = base
			w.fireDueLocked(base + vtBatchNanos)
		}
		w.mu.Unlock()
		if wait > 0 {
			vtNap(min(wait, vtMaxNap))
		}
	}
}
