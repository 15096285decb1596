package tsan

import "repro/internal/vclock"

// AtomicState is the per-atomic-location memory-model state: a bounded
// modification-order history of stores, plus per-thread observation indices
// enforcing C++11 coherence. A relaxed load may read any store that is
// neither hidden by coherence nor evicted from the history, which is how
// tsan11 exposes weak-memory behaviours (such as Figure 1 of the paper) on
// strongly-ordered host hardware.
type AtomicState struct {
	// history holds the retained stores, oldest first from slot head: it
	// grows to HistoryDepth records, and from then on is a ring in which
	// each store takes the evicted oldest's slot. A ring keeps a store
	// from copying the records, whose snapshot pointers make every copy
	// pay write barriers.
	history []storeRecord
	head    int
	// base is the modification-order index of the oldest retained store,
	// in slot head; indices grow monotonically as stores are appended and
	// old entries evicted.
	base int
	// lastSeen[tid] is the highest modification-order index thread tid
	// has observed (read or written), for read-read coherence. Dense,
	// indexed by TID (TIDs are small scheduler-assigned integers), grown
	// on demand to the detector's thread count; -1 means the thread has
	// not observed this location.
	lastSeen []int
	// lastSC is the modification-order index of the most recent seq_cst
	// store (-1 if none): a seq_cst load may not read anything older.
	lastSC int
}

type storeRecord struct {
	value uint64
	tid   TID
	epoch vclock.Epoch
	// release is a snapshot of the storing thread's clock if the store
	// participates in a release operation (or continues a release
	// sequence); the zero Snapshot for a plain relaxed store. Snapshots
	// are shared: every release store a thread performs within one epoch
	// carries the same one, so appending here does not allocate.
	release vclock.Snapshot
	seqCst  bool
}

// NewAtomicState returns the state for a fresh atomic location holding an
// initial value, attributed to the creating thread.
func NewAtomicState(d *Detector, tid TID, init uint64) *AtomicState {
	// The history holds at most HistoryDepth records, so it is allocated
	// once at that size.
	a := &AtomicState{history: make([]storeRecord, 1, d.opts.HistoryDepth), lastSC: -1}
	// The initialisation is a plain write that happens-before everything
	// the creating thread subsequently releases.
	a.history[0] = storeRecord{value: init, tid: tid, epoch: d.Epoch(tid)}
	return a
}

// seenIndex returns the highest modification-order index tid has observed,
// or -1 if it has never accessed this location.
func (a *AtomicState) seenIndex(tid TID) int {
	if int(tid) >= len(a.lastSeen) {
		return -1
	}
	return a.lastSeen[tid]
}

// setSeen records that tid observed modification-order index idx. A
// growth sizes lastSeen to every thread the detector has registered, so a
// location its threads all touch allocates it once.
func (a *AtomicState) setSeen(d *Detector, tid TID, idx int) {
	if int(tid) >= len(a.lastSeen) {
		grown := make([]int, len(d.clocks))
		for i := copy(grown, a.lastSeen); i < len(grown); i++ {
			grown[i] = -1
		}
		a.lastSeen = grown
	}
	a.lastSeen[tid] = idx
}

// at returns the retained store with modification-order index idx.
func (a *AtomicState) at(idx int) *storeRecord {
	s := a.head + idx - a.base
	if s >= len(a.history) {
		s -= len(a.history)
	}
	return &a.history[s]
}

func (a *AtomicState) top() *storeRecord { return a.at(a.topIndex()) }

func (a *AtomicState) topIndex() int { return a.base + len(a.history) - 1 }

// Latest returns the newest value in modification order without any
// synchronisation effect (used by invariant checks and reporting).
func (a *AtomicState) Latest() uint64 { return a.top().value }

// HistoryLen returns the number of retained stores.
func (a *AtomicState) HistoryLen() int { return len(a.history) }

// minVisibleIndex computes the oldest modification-order index thread tid
// may legally read: everything below is hidden by write-read coherence
// (a store that happens-before the load, with a successor that also
// happens-before), read-read coherence (lastSeen), or eviction.
func (a *AtomicState) minVisibleIndex(d *Detector, tid TID) int {
	min := a.base
	if seen := a.seenIndex(tid); seen > min {
		min = seen
	}
	c := d.clock(tid)
	// The newest store that happens-before the load hides all older ones.
	for idx := a.topIndex(); idx >= a.base; idx-- {
		rec := a.at(idx)
		if vclock.HappensBefore(rec.tid, rec.epoch, c) {
			if idx > min {
				min = idx
			}
			break
		}
	}
	return min
}

// Load performs an atomic load for tid with the given memory order,
// returning the value read. Weak behaviours are resolved by a PRNG draw
// inside the critical section, so they record/replay deterministically.
func (d *Detector) Load(a *AtomicState, tid TID, order MemoryOrder) uint64 {
	min := a.minVisibleIndex(d, tid)
	if d.opts.SequentialConsistency {
		min = a.topIndex()
	}
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
		if a.lastSC > min {
			min = a.lastSC
		}
	}
	top := a.topIndex()
	idx := top
	if min < top {
		idx = min + d.rng.Intn(top-min+1)
	}
	rec := a.at(idx)
	a.setSeen(d, tid, idx)
	if !rec.release.IsZero() {
		if order.acquires() {
			d.clocks[tid].JoinSnapshot(rec.release)
		} else {
			// A relaxed load can still synchronise through a later
			// acquire fence: remember the release clock.
			d.pendingAcquire[tid].JoinSnapshot(rec.release)
		}
	}
	if order == SeqCst {
		d.scClock.Join(d.clocks[tid])
	}
	return rec.value
}

// Store performs an atomic store.
func (d *Detector) Store(a *AtomicState, tid TID, value uint64, order MemoryOrder) {
	d.appendStore(a, tid, value, order, false)
}

// appendStore appends to the modification order. If rmw, the store
// continues any release sequence headed by the previous top store.
func (d *Detector) appendStore(a *AtomicState, tid TID, value uint64, order MemoryOrder, rmw bool) {
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
	}
	rec := storeRecord{value: value, tid: tid, epoch: d.Epoch(tid), seqCst: order == SeqCst}
	if order.releases() {
		rec.release = d.snap(tid)
	} else if rf := d.releaseFence[tid]; !rf.IsZero() {
		// Relaxed store after a release fence: shares the fence snapshot.
		rec.release = rf
	}
	if rmw {
		// An RMW continues the release sequence of the store it replaces:
		// an acquire load of this store synchronises with the original
		// release head as well (C++11 §1.10).
		if prev := a.top(); !prev.release.IsZero() {
			if rec.release.IsZero() {
				rec.release = prev.release
			} else {
				rec.release = vclock.MergeSnapshots(rec.release, prev.release)
			}
		}
	}
	if len(a.history) < d.opts.HistoryDepth {
		a.history = append(a.history, rec)
	} else {
		// Full: the store evicts the oldest and takes its slot.
		a.history[a.head] = rec
		if a.head++; a.head == len(a.history) {
			a.head = 0
		}
		a.base++
	}
	a.setSeen(d, tid, a.topIndex())
	if order == SeqCst {
		a.lastSC = a.topIndex()
		d.scClock.Join(d.clocks[tid])
	}
	if order.releases() {
		d.clocks[tid].Tick(tid)
	}
}

// RMW performs an atomic read-modify-write: it reads the newest store in
// modification order (RMW atomicity), applies fn, appends the result, and
// returns the old value.
func (d *Detector) RMW(a *AtomicState, tid TID, order MemoryOrder, fn func(old uint64) uint64) uint64 {
	old := a.top().value
	if rel := a.top().release; !rel.IsZero() {
		if order.acquires() {
			d.clocks[tid].JoinSnapshot(rel)
		} else {
			d.pendingAcquire[tid].JoinSnapshot(rel)
		}
	}
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
	}
	d.appendStore(a, tid, fn(old), order, true)
	return old
}

// CompareExchange performs an atomic compare-and-swap against the newest
// store. On success it behaves as an RMW with order; on failure as a load
// with failOrder of the newest value.
func (d *Detector) CompareExchange(a *AtomicState, tid TID, expected, desired uint64, order, failOrder MemoryOrder) (uint64, bool) {
	old := a.top().value
	if old != expected {
		// Failed CAS: a load of the newest value.
		if rel := a.top().release; !rel.IsZero() {
			if failOrder.acquires() {
				d.clocks[tid].JoinSnapshot(rel)
			} else {
				d.pendingAcquire[tid].JoinSnapshot(rel)
			}
		}
		a.setSeen(d, tid, a.topIndex())
		return old, false
	}
	d.RMW(a, tid, order, func(uint64) uint64 { return desired })
	return old, true
}
