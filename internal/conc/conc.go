// Package conc is the instrumented barrier and queue that programs under
// test synchronise through, in the role pthread_barrier_t and the
// condvar-guarded work queues play in the paper's PARSEC and pbzip2
// programs. Both are built from core's Mutex, Cond and Var, so every
// constituent operation is a visible operation of the controlled scheduler
// and a program built on conc is schedulable, race-checked and
// record/replayable exactly like one using the raw primitives.
package conc

import (
	"repro/internal/core"
)

// Barrier is a reusable n-party barrier (generation-counted, as
// streamcluster's phases require).
type Barrier struct {
	mu    *core.Mutex
	cv    *core.Cond
	n     int
	count *core.Var[int]
	gen   *core.Var[int]
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(rt *core.Runtime, name string, n int) *Barrier {
	if n < 1 {
		panic("conc: barrier size must be >= 1")
	}
	mu := rt.NewMutex(name + ".mu")
	return &Barrier{
		mu:    mu,
		cv:    rt.NewCond(name+".cv", mu),
		n:     n,
		count: core.NewVar(rt, name+".count", 0),
		gen:   core.NewVar(rt, name+".gen", 0),
	}
}

// Wait blocks until n parties have arrived; the last arrival releases the
// cohort and reports true (the "serial thread", as pthread_barrier_wait's
// PTHREAD_BARRIER_SERIAL_THREAD does).
func (b *Barrier) Wait(t *core.Thread) bool {
	b.mu.Lock(t)
	gen := b.gen.Read(t)
	c := b.count.Read(t) + 1
	b.count.Write(t, c)
	if c == b.n {
		b.count.Write(t, 0)
		b.gen.Write(t, gen+1)
		b.cv.Broadcast(t)
		b.mu.Unlock(t)
		return true
	}
	for b.gen.Read(t) == gen {
		b.cv.Wait(t)
	}
	b.mu.Unlock(t)
	return false
}

// Queue is a blocking FIFO of V, the producer/consumer channel the
// pipeline benchmarks are built from. An unbounded queue never touches its
// notFull condvar, so it costs the same visible operations as the
// one-condvar queue a pthreads program writes by hand.
type Queue[V any] struct {
	mu       *core.Mutex
	notEmpty *core.Cond
	notFull  *core.Cond
	items    *core.Var[ring[V]]
	closed   *core.Var[bool]
	capacity int
}

// ring is a queue's items: n of them, in order from buf[head], wrapping.
// It grows by doubling when full, so a long-lived queue reuses one buffer
// instead of reallocating as its front is popped and its back pushed.
type ring[V any] struct {
	buf     []V
	head, n int
}

func (r ring[V]) push(v V) ring[V] {
	if r.n == len(r.buf) {
		grown := make([]V, max(8, 2*len(r.buf)))
		copy(grown, r.buf[r.head:])
		copy(grown[len(r.buf)-r.head:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return r
}

// pop removes the head; the ring must not be empty.
func (r ring[V]) pop() (V, ring[V]) {
	v := r.buf[r.head]
	var zero V
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, r
}

// NewQueue creates a bounded queue (capacity <= 0 means unbounded).
func NewQueue[V any](rt *core.Runtime, name string, capacity int) *Queue[V] {
	mu := rt.NewMutex(name + ".mu")
	return &Queue[V]{
		mu:       mu,
		notEmpty: rt.NewCond(name+".ne", mu),
		notFull:  rt.NewCond(name+".nf", mu),
		items:    core.NewVar(rt, name+".items", ring[V]{}),
		closed:   core.NewVar(rt, name+".closed", false),
		capacity: capacity,
	}
}

// Push appends v, blocking while the queue is full. It reports false if
// the queue was closed.
func (q *Queue[V]) Push(t *core.Thread, v V) bool {
	q.mu.Lock(t)
	defer q.mu.Unlock(t)
	for {
		if q.closed.Read(t) {
			return false
		}
		if q.capacity <= 0 || q.items.Read(t).n < q.capacity {
			break
		}
		q.notFull.Wait(t)
	}
	q.items.Update(t, func(r ring[V]) ring[V] { return r.push(v) })
	q.notEmpty.Signal(t)
	return true
}

// Pop removes the head, blocking while empty; ok=false means closed and
// drained.
func (q *Queue[V]) Pop(t *core.Thread) (V, bool) {
	q.mu.Lock(t)
	defer q.mu.Unlock(t)
	for {
		if r := q.items.Read(t); r.n > 0 {
			v, rest := r.pop()
			q.items.Write(t, rest)
			if q.capacity > 0 {
				q.notFull.Signal(t)
			}
			return v, true
		}
		if q.closed.Read(t) {
			var zero V
			return zero, false
		}
		q.notEmpty.Wait(t)
	}
}

// Close marks the queue closed and wakes all waiters. Only a bounded
// queue can have a Push waiting on notFull.
func (q *Queue[V]) Close(t *core.Thread) {
	q.mu.Lock(t)
	q.closed.Write(t, true)
	q.notEmpty.Broadcast(t)
	if q.capacity > 0 {
		q.notFull.Broadcast(t)
	}
	q.mu.Unlock(t)
}
