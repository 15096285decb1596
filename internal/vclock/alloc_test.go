package vclock

import (
	"testing"
	"unsafe"
)

// sparsePeak builds the shape the O(active) sweep targets: a clock whose
// storage once grew to `peak` slots (a burst of short-lived high TIDs that
// have since quiesced to epoch 0) but whose live entries are only TIDs
// 0..active-1.
func sparsePeak(peak, active int) *Clock {
	c := New(peak)
	// Touch the top slot so the width really reached peak, then zero it.
	c.Set(TID(peak-1), 1)
	c.Set(TID(peak-1), 0)
	for i := 0; i < active; i++ {
		c.Set(TID(i), Epoch(i+1))
	}
	return c
}

// TestCopyTrimsSparsePeak pins the satellite fix: Copy/Assign of a clock
// with 8 live entries under a 10240-slot high-water mark must copy the live
// prefix, not the peak width.
func TestCopyTrimsSparsePeak(t *testing.T) {
	const peak, active = 10240, 8
	c := sparsePeak(peak, active)
	if c.Len() != peak {
		t.Fatalf("setup: Len() = %d, want %d", c.Len(), peak)
	}

	dup := c.Copy()
	if dup.Len() != active {
		t.Fatalf("Copy of sparse clock has Len() = %d, want %d (trimmed)", dup.Len(), active)
	}
	for i := 0; i < peak; i++ {
		if dup.Get(TID(i)) != c.Get(TID(i)) {
			t.Fatalf("Copy diverges at tid %d: %d vs %d", i, dup.Get(TID(i)), c.Get(TID(i)))
		}
	}

	// Join must not inflate the destination to the source's peak either.
	dst := New(0)
	dst.Join(c)
	if dst.Len() != active {
		t.Fatalf("Join from sparse clock grew dst to %d slots, want %d", dst.Len(), active)
	}

	// And the snapshot paths: merging two sparse snapshots allocates the
	// trimmed width.
	m := MergeSnapshots(c.Snapshot(0), c.Snapshot(0))
	if m.Len() != active {
		t.Fatalf("MergeSnapshots width = %d, want %d", m.Len(), active)
	}
	dst2 := New(0)
	dst2.JoinSnapshot(c.Snapshot(0))
	if dst2.Len() != active {
		t.Fatalf("JoinSnapshot grew dst to %d slots, want %d", dst2.Len(), active)
	}
}

// TestCopyBytesSparseHighTID is the B/op regression test: copying a clock
// whose 10240-wide storage holds 8 live entries must allocate bytes
// proportional to the live width. The bound is generous (room for the
// amortized doubling in append and allocator size classes) but far below
// the ~80KiB a peak-width copy would cost.
func TestCopyBytesSparseHighTID(t *testing.T) {
	const peak, active = 10240, 8
	c := sparsePeak(peak, active)

	var dup *Clock
	perRun := testing.AllocsPerRun(100, func() {
		dup = c.Copy()
	})
	_ = dup
	// Copy = one Clock header + one epochs slice.
	if perRun > 2 {
		t.Fatalf("Copy of sparse clock does %.1f allocs/run, want <= 2", perRun)
	}
	// Bytes: measure the epochs storage directly — its capacity times the
	// epoch size bounds what append reserved.
	const epochSize = int(unsafe.Sizeof(Epoch(0)))
	if got, limit := cap(dup.epochs)*epochSize, 16*active*epochSize; got > limit {
		t.Fatalf("Copy of sparse clock reserved %d bytes of epochs, want <= %d", got, limit)
	}
}

// TestCoveredJoinChangesNothing: a join whose argument the clock already
// covers, as when a thread re-acquires the mutex it released last, neither
// copies the clock's storage nor moves its generation, so the snapshot
// sharing that storage stays shared. A join that raises an entry still
// copies the storage before it writes, and the snapshot keeps its value.
func TestCoveredJoinChangesNothing(t *testing.T) {
	c := fromSlice([]Epoch{4, 7, 2})
	shared := c.Snapshot(1)
	covered := fromSlice([]Epoch{3, 7, 0, 0})
	coveredSnap := fromSlice([]Epoch{4, 1, 2}).Snapshot(0)
	gen := c.Gen()
	if n := testing.AllocsPerRun(100, func() {
		c.Join(covered)
		c.JoinSnapshot(coveredSnap)
		c.JoinSnapshot(shared)
	}); n != 0 {
		t.Fatalf("covered joins allocate %.1f times, want 0", n)
	}
	if c.Gen() != gen {
		t.Fatalf("covered joins moved Gen from %d to %d", gen, c.Gen())
	}
	if !c.shared || &c.epochs[0] != &shared.epochs[0] {
		t.Fatal("covered joins copied the shared storage")
	}
	if c.Len() != 3 {
		t.Fatalf("covered joins grew the clock to %d slots", c.Len())
	}

	for _, raise := range []func(){
		func() { c.Join(fromSlice([]Epoch{0, 0, 3})) },
		func() { c.JoinSnapshot(fromSlice([]Epoch{5}).Snapshot(0)) },
	} {
		before := c.Snapshot(1)
		gen := c.Gen()
		raise()
		if c.Gen() == gen {
			t.Fatal("a raising join kept Gen")
		}
		if &c.epochs[0] == &before.epochs[0] {
			t.Fatal("a raising join wrote into the shared storage")
		}
	}
	if got := c.String(); got != "[5 7 3]" {
		t.Fatalf("clock = %s after the raising joins, want [5 7 3]", got)
	}
	if got := shared.String(); got != "[4 7 2]" {
		t.Fatalf("snapshot = %s after the raising joins, want [4 7 2]", got)
	}
}

// BenchmarkCopySparseHighTID reports B/op for the sparse high-TID copy so
// the trajectory JSON can track it; run with -benchmem.
func BenchmarkCopySparseHighTID(b *testing.B) {
	c := sparsePeak(10240, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.Copy()
	}
}

var sink *Clock
