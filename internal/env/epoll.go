package env

import (
	"sync"
	"time"
)

// Batched readiness polling — the virtual epoll(7). The scalability story
// for million-connection workloads: Poll/Select re-scan every fd on every
// call (O(fds) per decision, fine for tens of clients), while an epoll
// instance holds a per-FD readiness index that the write/close sites update
// in place. Registration is O(1), a readiness transition costs O(watching
// pollers), and one wakeup delivers a whole *batch* of ready events — so
// the program spends one visible operation per batch, not per socket.
//
// Semantics are level-triggered: an fd stays in the ready set while it
// remains readable (data buffered, EOF pending, backlog non-empty) and
// leaves it when drained; EpollWait rechecks readiness at delivery time and
// silently drops entries whose fd has been closed or deregistered, as the
// real epoll does.

// EpollCtl operations.
const (
	EpollAdd = iota + 1
	EpollDel
)

// EpollEvent is one delivered readiness event.
type EpollEvent struct {
	FD     int
	Events int16 // PollIn (readable/EOF/backlog); PollErr for invalid fds
}

// epollRef is one epoll instance's registration on a watched object.
type epollRef struct {
	ep *epoll
	fd int
}

// epoll is the per-instance state: the interest set and a dedup'd queue of
// candidate-ready fds.
type epoll struct {
	interest map[int]int16
	ready    []int
	queued   map[int]bool
	// cond parks WaitEpoll callers; signalled only when a watched fd is
	// enqueued.
	cond *sync.Cond
}

// enqueueLocked marks fd candidate-ready on this instance, waking waiters.
// Deduplicated: an fd already queued (or no longer of interest) is a no-op,
// so a burst of writes to one socket costs one queue slot.
func (ep *epoll) enqueueLocked(fd int) {
	if _, ok := ep.interest[fd]; !ok {
		return
	}
	if ep.queued[fd] {
		return
	}
	ep.queued[fd] = true
	ep.ready = append(ep.ready, fd)
	ep.cond.Broadcast()
}

// EpollCreate allocates a new epoll instance and returns its fd.
func (w *World) EpollCreate() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	ep := &epoll{
		interest: make(map[int]int16),
		queued:   make(map[int]bool),
		cond:     w.newWaiterCondLocked(),
	}
	return w.allocLocked(&fdesc{kind: FDEpoll, ep: ep})
}

// EpollCtl adds or removes fd from the instance's interest set. Only PollIn
// interest is meaningful (the environment's writes never block, so
// writability is always true). An added fd must already be something
// watchable: a listener, a connected stream socket, a pipe end, a datagram
// socket or a file. Re-adding an fd already present is EINVAL, as is
// adding an unconnected stream socket.
func (w *World) EpollCtl(epfd, op, fd int, events int16) Errno {
	w.mu.Lock()
	defer w.mu.Unlock()
	ed, e := w.lookupLocked(epfd, FDEpoll)
	if e != OK {
		return e
	}
	ep := ed.ep
	switch op {
	case EpollAdd:
		d, ok := w.fds[fd]
		if !ok || d.closed {
			return EBADF
		}
		if _, dup := ep.interest[fd]; dup {
			return EINVAL
		}
		// Attach to the watched object so its write/close sites can notify
		// this instance directly. The listing below is the entire
		// registration cost: O(1), independent of how many fds the
		// instance already watches.
		switch {
		case d.kind == FDListener:
			d.lstn.watch = append(d.lstn.watch, epollRef{ep: ep, fd: fd})
		case d.dg != nil:
			d.dg.watch = append(d.dg.watch, epollRef{ep: ep, fd: fd})
		case d.peer != nil:
			d.peer.watch[d.inDir] = append(d.peer.watch[d.inDir], epollRef{ep: ep, fd: fd})
		case d.kind == FDFile:
			// Files are always readable; no transition will ever fire, so
			// the immediate enqueue below is the only delivery.
		case d.placeholder:
			// Replay-allocated fd: it connects to nothing live, and its
			// readiness comes back from the recorded epoll_wait results, so
			// the registration only needs to succeed structurally.
		default:
			return EINVAL
		}
		ep.interest[fd] = events
		w.bumpLocked()
		if w.readableLocked(fd) {
			ep.enqueueLocked(fd)
		}
	case EpollDel:
		if _, ok := ep.interest[fd]; !ok {
			return EBADF
		}
		delete(ep.interest, fd)
		delete(ep.queued, fd)
		w.bumpLocked()
		// The object-side watch entry stays behind and is filtered by the
		// interest check in enqueueLocked; it dies with the object.
	default:
		return EINVAL
	}
	return OK
}

// epollDrainLocked validates the candidate queue against current readiness
// and returns up to max actually-ready events (max <= 0: prune only,
// deliver nothing). Level-triggered: delivered fds stay queued until a
// later drain finds them unreadable; closed or deregistered fds are
// dropped (closed ones also leave the interest set, as in epoll(7)).
func (w *World) epollDrainLocked(ep *epoll, max int) []EpollEvent {
	var out []EpollEvent
	keep := ep.ready[:0]
	for _, fd := range ep.ready {
		if _, ok := ep.interest[fd]; !ok {
			delete(ep.queued, fd)
			continue
		}
		d, ok := w.fds[fd]
		if !ok || d.closed {
			delete(ep.interest, fd)
			delete(ep.queued, fd)
			continue
		}
		if !w.readableLocked(fd) {
			delete(ep.queued, fd)
			continue
		}
		if max > 0 && len(out) < max {
			out = append(out, EpollEvent{FD: fd, Events: PollIn})
		}
		keep = append(keep, fd)
	}
	ep.ready = keep
	return out
}

// EpollWait returns up to max ready events without blocking (empty batch
// when nothing is ready — the program-side surface never blocks). The
// blocking half is WaitEpoll, called outside the critical section.
func (w *World) EpollWait(epfd, max int) ([]EpollEvent, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ed, e := w.lookupLocked(epfd, FDEpoll)
	if e != OK {
		return nil, e
	}
	if max <= 0 {
		max = len(ed.ep.ready)
	}
	return w.epollDrainLocked(ed.ep, max), OK
}

// WaitEpoll blocks until the instance has at least one genuinely ready fd,
// the timeout elapses, or the world is interrupted/shut down. Like
// WaitReadable it is the runtime's parking spot for a polling thread's
// invisible region; unlike WaitReadable it never re-scans the interest set
// — it validates only the candidate queue the writers have already filled.
func (w *World) WaitEpoll(epfd int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed || w.interrupted {
			return
		}
		ed, e := w.lookupLocked(epfd, FDEpoll)
		if e != OK {
			return
		}
		w.epollDrainLocked(ed.ep, 0)
		if len(ed.ep.ready) > 0 {
			return
		}
		if !w.waitCondUntilLocked(ed.ep.cond, deadline) {
			return
		}
	}
}
