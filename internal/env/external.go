package env

import (
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// The External* surface is used by the "outside world" — load generators,
// remote game servers, keyboards — which runs as ordinary goroutines
// outside the controlled scheduler. Unlike the program-side surface these
// calls may block, and their timing is genuinely nondeterministic, which is
// exactly the nondeterminism the recorder captures.

// ErrWorldClosed is returned by external operations after Shutdown.
var ErrWorldClosed = errors.New("env: world closed")

// ErrTimeout is returned by external operations that exceed their deadline.
var ErrTimeout = errors.New("env: external operation timed out")

// ExtConn is the external endpoint of a connection to the program under
// test. The external side reads dir[1] and writes dir[0].
type ExtConn struct {
	w *World
	b *buffers
}

// ExternalConnect dials a program-side listener on port, blocking until the
// connection is established (or timeout elapses). Dialling a port nobody
// listens on yet queues a half-open connection — the SYN queue — which the
// program's Listen adopts wholesale, so early diallers connect in one burst
// rather than trickling in one wakeup at a time.
func (w *World) ExternalConnect(port int, timeout time.Duration) (*ExtConn, error) {
	deadline := time.Now().Add(timeout)
	w.mu.Lock()
	defer w.mu.Unlock()
	var syn *synConn
	for {
		if w.closed || w.interrupted {
			w.removeSynLocked(port, syn)
			return nil, ErrWorldClosed
		}
		if syn != nil {
			if syn.adopted {
				return &ExtConn{w: w, b: syn.b}, nil
			}
		} else if l, ok := w.ports[port]; ok && !l.closed {
			// Live listener: enqueue directly.
			b := &buffers{refCount: 2}
			l.backlog = append(l.backlog, b)
			if w.tr.Enabled() {
				w.tr.Emit(obs.Event{TID: -1, Kind: obs.KindExternal, Obj: uint64(port)})
			}
			// A pending connection makes the listening fd readable: wake
			// the epoll instances and pollers watching it — not the other
			// 10k external clients.
			w.progReadableLocked(l.watch)
			return &ExtConn{w: w, b: b}, nil
		} else {
			// No listener yet: park a half-open connection for Listen to
			// adopt.
			syn = &synConn{b: &buffers{refCount: 2}}
			if w.synQ == nil {
				w.synQ = make(map[int][]*synConn)
			}
			w.synQ[port] = append(w.synQ[port], syn)
		}
		if !w.waitUntilLocked(deadline) {
			w.removeSynLocked(port, syn)
			return nil, ErrTimeout
		}
	}
}

// removeSynLocked withdraws an unadopted half-open connection from the SYN
// queue (dialler gave up or the world stopped). No-op for nil or adopted
// entries.
func (w *World) removeSynLocked(port int, syn *synConn) {
	if syn == nil || syn.adopted {
		return
	}
	q := w.synQ[port]
	for i, s := range q {
		if s == syn {
			w.synQ[port] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// waitUntilLocked waits on the global cond (listener appearance, global
// events) or the deadline; see waitCondUntilLocked.
func (w *World) waitUntilLocked(deadline time.Time) bool {
	if w.cond == nil {
		w.cond = sync.NewCond(&w.mu)
	}
	return w.waitCondUntilLocked(w.cond, deadline)
}

// waitCondUntilLocked waits for a broadcast of c or the deadline; reports
// whether the deadline is still in the future. The deadline is armed as a
// runtime timer (no goroutine until it fires), and disarmed on wakeup.
func (w *World) waitCondUntilLocked(c *sync.Cond, deadline time.Time) bool {
	now := time.Now()
	if !now.Before(deadline) {
		return false
	}
	tm := time.AfterFunc(deadline.Sub(now), func() {
		w.mu.Lock()
		c.Broadcast()
		w.mu.Unlock()
	})
	c.Wait()
	tm.Stop()
	return true
}

// Send writes data toward the program.
func (c *ExtConn) Send(data []byte) error {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	if c.w.closed {
		return ErrWorldClosed
	}
	if c.b.closed[0] || c.b.refCount < 2 {
		return EPIPE
	}
	c.b.dir[0] = append(c.b.dir[0], data...)
	// The program reads dir[0]: wake its watchers, nobody else.
	c.w.progReadableLocked(c.b.watch[0])
	return nil
}

// Recv reads up to max bytes from the program, blocking until data, EOF
// (nil, nil), or timeout.
func (c *ExtConn) Recv(max int, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	for {
		if c.w.closed || c.w.interrupted {
			return nil, ErrWorldClosed
		}
		if len(c.b.dir[1]) > 0 {
			n := max
			if n > len(c.b.dir[1]) {
				n = len(c.b.dir[1])
			}
			out := append([]byte(nil), c.b.dir[1][:n]...)
			c.b.dir[1] = c.b.dir[1][n:]
			c.w.bumpLocked()
			return out, nil
		}
		if c.b.closed[1] {
			return nil, nil // EOF
		}
		// Park on this connection's private gate: the program writing or
		// closing THIS connection is the only event that can satisfy us.
		if c.b.extCond == nil {
			c.b.extCond = c.w.newWaiterCondLocked()
		}
		if !c.w.waitCondUntilLocked(c.b.extCond, deadline) {
			return nil, ErrTimeout
		}
	}
}

// Close closes the external endpoint.
func (c *ExtConn) Close() {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	if c.b.refCount > 0 {
		c.b.closed[0] = true
		c.b.refCount--
		// EOF for the program's reader.
		c.w.progReadableLocked(c.b.watch[0])
	}
}

// ExtListener is an external server socket the program under test can
// Connect to (e.g. the remote game server of §5.4).
type ExtListener struct {
	w    *World
	port int
}

// ExternalListen registers an external listener on port.
func (w *World) ExternalListen(port int) *ExtListener {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.extPort == nil {
		w.extPort = make(map[int]*extListener)
	}
	w.extPort[port] = &extListener{port: port}
	return &ExtListener{w: w, port: port}
}

// Accept blocks until a program-side Connect arrives or timeout elapses.
func (l *ExtListener) Accept(timeout time.Duration) (*ExtConn, error) {
	deadline := time.Now().Add(timeout)
	l.w.mu.Lock()
	defer l.w.mu.Unlock()
	for {
		if l.w.closed || l.w.interrupted {
			return nil, ErrWorldClosed
		}
		el := l.w.extPort[l.port]
		if el != nil && len(el.pending) > 0 {
			b := el.pending[0]
			el.pending = el.pending[1:]
			l.w.bumpLocked()
			return &ExtConn{w: l.w, b: b}, nil
		}
		if el == nil {
			return nil, ErrWorldClosed
		}
		// Park on this listener's private gate; program-side Connects to
		// this port signal it.
		if el.cond == nil {
			el.cond = l.w.newWaiterCondLocked()
		}
		if !l.w.waitCondUntilLocked(el.cond, deadline) {
			return nil, ErrTimeout
		}
	}
}

// RegisterSignalSink registers a callback invoked by Kill. The runtime
// registers itself here so external signals reach the scheduler.
func (w *World) RegisterSignalSink(sink func(sig int32)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sigSinks = append(w.sigSinks, sink)
}

// Kill delivers an asynchronous signal to the process under test, from the
// external world (the virtual equivalent of `kill(pid, sig)`).
func (w *World) Kill(sig int32) {
	w.mu.Lock()
	sinks := make([]func(int32), len(w.sigSinks))
	copy(sinks, w.sigSinks)
	if w.tr.Enabled() {
		w.tr.Emit(obs.Event{TID: -1, Kind: obs.KindExternal, Obj: uint64(uint32(sig)), Arg: int64(sig)})
	}
	w.mu.Unlock()
	for _, s := range sinks {
		s(sig)
	}
}

// stopLocked wakes every waiter in the world — the global cond, every
// per-object gate ever handed out, and the channel-based virtual-time
// sleepers (via stopCh). The only two all-waiters events, Interrupt and
// Shutdown, funnel through here.
func (w *World) stopLocked() {
	if !w.stopClosed {
		w.stopClosed = true
		close(w.stopCh)
	}
	w.broadcastLocked()
	for _, c := range w.waiterConds {
		c.Broadcast()
	}
}

// Shutdown closes the world: external operations unblock with
// ErrWorldClosed.
func (w *World) Shutdown() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.stopLocked()
}

// Interrupt unblocks every waiter — program-side threads parked in
// WaitReadable and external goroutines blocked in Recv/Accept/Connect loops
// — without closing the world. The runtime wires it to the scheduler's
// OnStop hook: when a run stops (Stop, desync, deadlock, shutdown) while a
// thread is blocked in a virtual recv, the waiter must not sit out its
// timeout before the abort can unwind it. External waiters observe
// ErrWorldClosed, the same outcome they would see at Shutdown moments
// later. Safe to call from any goroutine, including scheduler callbacks:
// it only touches world state.
func (w *World) Interrupt() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.interrupted = true
	w.stopLocked()
}

// ExternalRand exposes external-world entropy for injectors (jitter,
// payload variation). Never recorded; never used by the program under test.
func (w *World) ExternalRand() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextRandLocked()
}
