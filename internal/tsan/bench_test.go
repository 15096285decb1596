package tsan

import (
	"fmt"
	"testing"

	"repro/internal/prng"
)

// newBenchDetector returns a detector with n registered threads whose
// clocks all overlap (every thread synchronised with thread 0 once), so
// clock lengths are representative of an n-thread program.
func newBenchDetector(n int) *Detector {
	d := New(prng.New(1, 2), Options{})
	for tid := TID(1); tid < TID(n); tid++ {
		d.OnThreadCreate(0, tid)
	}
	return d
}

// BenchmarkDataAccess measures the non-atomic read+write shadow check for
// a single thread in an n-thread process. With the epoch read-shadow this
// is O(1) — the numbers must stay flat as the thread count grows, all the
// way to the 10240-thread scaling target (the pre-rewrite full read clock
// made OnWrite scan O(n) entries because the accessor has the highest TID).
func BenchmarkDataAccess(b *testing.B) {
	for _, n := range []int{2, 4, 8, 32, 128, 1024, 10240} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			d := newBenchDetector(n)
			tid := TID(n - 1)
			var sh Shadow
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.OnRead(&sh, tid, "bench.x")
				d.OnWrite(&sh, tid, "bench.x")
			}
		})
	}
}

// BenchmarkAtomicRelease measures a release-store loop. Each iteration
// publishes a release clock; with shared copy-on-write snapshots this
// allocates nothing after warm-up (the pre-rewrite detector deep-copied an
// O(threads) clock per store).
func BenchmarkAtomicRelease(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			d := newBenchDetector(n)
			tid := TID(n - 1)
			a := NewAtomicState(d, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Store(a, tid, uint64(i), Release)
			}
		})
	}
}

// BenchmarkAtomicReleaseAcquirePair measures the full hand-off: a release
// store by one thread, an acquire load by another. The acquire side pays
// the copy-on-write (its join invalidates the releaser's sharing), so this
// bounds the cost the snapshot scheme can defer.
func BenchmarkAtomicReleaseAcquirePair(b *testing.B) {
	for _, n := range []int{2, 32, 128} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			d := newBenchDetector(n)
			a := NewAtomicState(d, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Store(a, 0, uint64(i), Release)
				_ = d.Load(a, TID(n-1), Acquire)
			}
		})
	}
}

// BenchmarkMutexHandoff measures the snapshot-replacing mutex edge pair
// (ReleaseSnapshot/AcquireSnapshot) as core.Mutex drives it.
func BenchmarkMutexHandoff(b *testing.B) {
	for _, n := range []int{2, 32, 128} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			d := newBenchDetector(n)
			var mu = d.ReleaseSnapshot(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate the first and last thread so the clocks being
				// snapshotted and joined have full n-entry length.
				tid := TID(0)
				if i%2 == 1 {
					tid = TID(n - 1)
				}
				d.AcquireSnapshot(tid, mu)
				mu = d.ReleaseSnapshot(tid)
			}
		})
	}
}
