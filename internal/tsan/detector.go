// Package tsan implements the tsan11-model dynamic race detector the tool
// builds on (§2; Lidbury & Donaldson, POPL 2017): vector-clock
// happens-before tracking for non-atomic accesses, plus a fragment of the
// C++11 memory model for atomics — store histories so relaxed loads can
// read stale values, release/acquire synchronisation, release sequences
// through read-modify-writes, seq_cst ordering, and fences.
//
// Concurrency invariant: every method of this package is called from inside
// a scheduler critical section (between Wait and Tick). Critical sections
// are globally serialised and connected by happens-before edges through the
// scheduler's mutex, so detector state needs no locking of its own and all
// PRNG draws (stale-value selection) occur in a deterministic global order,
// which is what makes record/replay of weak-memory behaviours possible.
package tsan

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/vclock"
)

// TID aliases the scheduler's thread id.
type TID = vclock.TID

// MemoryOrder is the C++11 memory order of an atomic operation.
type MemoryOrder int

// Memory orders (memory_order_consume is treated as acquire, as tsan11
// does).
const (
	Relaxed MemoryOrder = iota
	Acquire
	Release
	AcqRel
	SeqCst
)

func (o MemoryOrder) String() string {
	switch o {
	case Relaxed:
		return "relaxed"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case AcqRel:
		return "acq_rel"
	case SeqCst:
		return "seq_cst"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

func (o MemoryOrder) acquires() bool { return o == Acquire || o == AcqRel || o == SeqCst }
func (o MemoryOrder) releases() bool { return o == Release || o == AcqRel || o == SeqCst }

// Options configures a Detector.
type Options struct {
	// HistoryDepth bounds each atomic location's store history; older
	// stores are evicted and can no longer be read (tsan11 keeps a
	// similar bounded buffer). Default 8.
	HistoryDepth int
	// SequentialConsistency forces every atomic load to read the newest
	// store, disabling weak-memory behaviours. This models the plain
	// "tsan" semantics the paper contrasts with tsan11 and is used by the
	// ablation benchmarks.
	SequentialConsistency bool
	// MaxReports bounds the number of race reports retained. Default 128.
	MaxReports int
}

// Detector is the race-detection and memory-model engine.
type Detector struct {
	opts Options
	rng  *prng.Source

	clocks []*vclock.Clock // per-thread vector clocks

	// scClock orders seq_cst operations: the single total order S of
	// C++11 is approximated by a clock joined at every seq_cst op.
	scClock *vclock.Clock

	// pendingAcquire accumulates, per thread, the release clocks of
	// stores read by relaxed loads, to be claimed by a later acquire
	// fence (C++11 §29.8: fence synchronisation).
	pendingAcquire []*vclock.Clock

	// releaseFence holds, per thread, the clock snapshot taken at the
	// thread's most recent release fence; relaxed stores that follow the
	// fence carry it as their release clock (C++11 §29.8).
	releaseFence []vclock.Snapshot

	// relSnap/relGen cache one release snapshot per thread per clock
	// generation: all release stores, fences and edges a thread performs
	// within one epoch share the same immutable snapshot, so a
	// release-store loop allocates nothing after its first iteration.
	relSnap []vclock.Snapshot
	relGen  []uint64

	// readPool recycles the full read clocks that Shadow escalation
	// allocates; OnWrite returns them here when it clears the shadow.
	readPool []*vclock.Clock

	reports  []Report
	seen     map[reportKey]bool
	disabled bool
	tr       *obs.Tracer // trace sink for race reports; nil-safe
}

// SetTrace attaches an execution tracer; each distinct race report emits
// one diagnostic trace event. A nil tracer is valid and disables emission.
func (d *Detector) SetTrace(tr *obs.Tracer) { d.tr = tr }

// New constructs a Detector sharing the scheduler's PRNG.
func New(rng *prng.Source, opts Options) *Detector {
	if opts.HistoryDepth <= 0 {
		opts.HistoryDepth = 8
	}
	if opts.MaxReports <= 0 {
		opts.MaxReports = 128
	}
	d := &Detector{
		opts:    opts,
		rng:     rng,
		scClock: &vclock.Clock{},
		seen:    make(map[reportKey]bool),
	}
	d.registerThread(0)
	return d
}

func (d *Detector) registerThread(tid TID) {
	for int(tid) >= len(d.clocks) {
		d.clocks = append(d.clocks, &vclock.Clock{})
		d.pendingAcquire = append(d.pendingAcquire, &vclock.Clock{})
		d.releaseFence = append(d.releaseFence, vclock.Snapshot{})
		d.relSnap = append(d.relSnap, vclock.Snapshot{})
		d.relGen = append(d.relGen, 0)
	}
	// Every thread starts with epoch 1 for itself so that epoch 0 means
	// "never accessed".
	d.clocks[tid].Tick(tid)
}

// clock returns tid's vector clock.
func (d *Detector) clock(tid TID) *vclock.Clock { return d.clocks[tid] }

// Epoch returns tid's current epoch.
func (d *Detector) Epoch(tid TID) vclock.Epoch { return d.clocks[tid].Get(tid) }

// ClockStrings renders every thread's vector clock, indexed by tid — the
// vclock summary a debugger's state dump and a replay checkpoint carry.
// Thread clocks only advance at visible operations, so at a given tick the
// rendering is deterministic across replays. Must be called under the same
// serialisation as every other detector method (a critical section, or the
// runtime's detector mutex while the execution is quiesced).
func (d *Detector) ClockStrings() []string {
	out := make([]string, len(d.clocks))
	for tid, c := range d.clocks {
		out[tid] = c.String()
	}
	return out
}

// OnThreadCreate establishes the happens-before edge from parent to a newly
// created child thread: the child inherits the parent's clock.
func (d *Detector) OnThreadCreate(parent, child TID) {
	d.registerThread(child)
	d.clocks[child].Join(d.clocks[parent])
	d.clocks[child].Tick(child)
	d.clocks[parent].Tick(parent)
}

// OnThreadJoin establishes the edge from a finished thread to its joiner.
func (d *Detector) OnThreadJoin(waiter, target TID) {
	d.clocks[waiter].Join(d.clocks[target])
	d.clocks[waiter].Tick(waiter)
}

// AcquireEdge joins an external clock (condvar) into tid's clock.
func (d *Detector) AcquireEdge(tid TID, c *vclock.Clock) {
	d.clocks[tid].Join(c)
}

// ReleaseEdge publishes tid's clock into an external clock and advances
// tid's epoch. Used for synchronisation objects whose clock must
// accumulate across releases by unrelated threads (condvars: POSIX lets a
// thread signal without ever having acquired the condvar's clock).
func (d *Detector) ReleaseEdge(tid TID, c *vclock.Clock) {
	c.Join(d.clocks[tid])
	d.clocks[tid].Tick(tid)
}

// snap returns the shared release snapshot of tid's current clock, taking
// it at most once per clock generation.
func (d *Detector) snap(tid TID) vclock.Snapshot {
	c := d.clocks[tid]
	if g := c.Gen() + 1; d.relGen[tid] != g {
		d.relSnap[tid] = c.Snapshot(tid)
		d.relGen[tid] = g
	}
	return d.relSnap[tid]
}

// ReleaseSnapshot returns an immutable snapshot of tid's clock for a
// release edge, and advances tid's epoch. Unlike ReleaseEdge's
// accumulating join, the caller REPLACES the sync object's clock with the
// snapshot. That is sound only when every releaser first acquired the
// clock it replaces — true for mutexes, where Lock joins the stored
// snapshot before Unlock publishes a new one, so each snapshot dominates
// its predecessor. Condvars must keep using ReleaseEdge.
func (d *Detector) ReleaseSnapshot(tid TID) vclock.Snapshot {
	s := d.snap(tid)
	d.clocks[tid].Tick(tid)
	return s
}

// AcquireSnapshot joins a release snapshot (mutex hand-off) into tid's
// clock.
func (d *Detector) AcquireSnapshot(tid TID, s vclock.Snapshot) {
	d.clocks[tid].JoinSnapshot(s)
}

// getReadClock takes a clock from the escalated-read-shadow pool.
func (d *Detector) getReadClock() *vclock.Clock {
	if n := len(d.readPool); n > 0 {
		c := d.readPool[n-1]
		d.readPool = d.readPool[:n-1]
		return c
	}
	return &vclock.Clock{}
}

// putReadClock resets a clock and returns it to the pool for reuse.
func (d *Detector) putReadClock(c *vclock.Clock) {
	c.Reset()
	d.readPool = append(d.readPool, c)
}

// Fence implements C++11 atomic_thread_fence.
func (d *Detector) Fence(tid TID, order MemoryOrder) {
	if order.acquires() {
		// Claim the release clocks of stores previously read by relaxed
		// loads.
		d.clocks[tid].Join(d.pendingAcquire[tid])
		d.pendingAcquire[tid].Reset()
	}
	if order.releases() {
		// Subsequent relaxed stores act as release stores carrying the
		// clock as of the fence: snapshot now (shared, not copied).
		d.releaseFence[tid] = d.snap(tid)
		d.clocks[tid].Tick(tid)
	}
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
		d.scClock.Join(d.clocks[tid])
	}
}
