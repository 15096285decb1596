// Package litmus reproduces the CDSchecker benchmark programs used in §5.1
// (Norris & Demsky, OOPSLA 2013): small (≈100 LOC) lock-free structures
// with seeded weak-memory bugs. Each program's race only manifests along
// particular interleavings and stale-read resolutions, which is what makes
// the Table 1 comparison between uncontrolled tsan11 and the controlled
// strategies meaningful.
package litmus

import (
	"time"

	"repro/internal/core"
)

// Program is one litmus test.
type Program = core.Program

// Programs lists the suite in the order of Table 1.
var Programs = []Program{
	{Name: "barrier", Body: barrier},
	{Name: "chase-lev-deque", Body: chaseLevDeque},
	{Name: "dekker-fences", Body: dekkerFences},
	{Name: "linuxrwlocks", Body: linuxRWLocks},
	{Name: "mcs-lock", Body: mcsLock},
	{Name: "mpmc-queue", Body: mpmcQueue},
	{Name: "ms-queue", Body: msQueue},
}

// ByName returns the named program, searching the Table 1 suite and then
// the synthetic Extras.
func ByName(name string) (Program, bool) {
	for _, p := range Programs {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range Extras {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// Result is one execution's outcome.
type Result struct {
	Duration time.Duration
	Races    int
	Err      error
}

// RunOnce executes the program under the given options, returning wall
// time and race count.
func RunOnce(p Program, opts core.Options) Result {
	if opts.MaxTicks == 0 {
		opts.MaxTicks = 500_000
	}
	if opts.WallTimeout == 0 {
		opts.WallTimeout = 10 * time.Second
	}
	rt, err := core.New(opts)
	if err != nil {
		return Result{Err: err}
	}
	start := time.Now() //tsanrec:allow(rawsync) host-side wall-clock measurement around Run, not program logic
	rep, err := rt.Run(p.Body(rt))
	d := time.Since(start) //tsanrec:allow(rawsync) host-side wall-clock measurement around Run, not program logic
	if err != nil {
		return Result{Duration: d, Err: err}
	}
	return Result{Duration: d, Races: rep.RaceCount()}
}

// barrier: a flag-based publication where the flag is relaxed, so the
// publish gives no happens-before edge. The reader is spawned first: under
// FCFS schedules it polls before the writer publishes and exits cleanly;
// only schedules that delay it past the publication expose the race.
func barrier(rt *core.Runtime) func(*core.Thread) {
	return func(main *core.Thread) {
		data := core.NewVar(rt, "barrier.data", 0)
		flag := main.NewAtomic64("barrier.flag", 0)
		reader := main.Spawn("reader", func(t *core.Thread) {
			for i := 0; i < 3; i++ {
				if flag.Load(t, core.Relaxed) == 1 {
					_ = data.Read(t) // racy: relaxed flag publishes nothing
					return
				}
			}
		})
		writer := main.Spawn("writer", func(t *core.Thread) {
			data.Write(t, 42)
			flag.Store(t, 1, core.Relaxed)
		})
		main.Join(reader)
		main.Join(writer)
	}
}

// chaseLevDeque: a work-stealing deque sketch. The owner performs a long
// run of pushes before the racy take window opens; the thief races only if
// it lands its steal inside that window (the paper found the real deque
// needs 29 owner operations before 4 thief operations, which uniform
// random scheduling rarely produces).
func chaseLevDeque(rt *core.Runtime) func(*core.Thread) {
	const pushes = 16
	return func(main *core.Thread) {
		items := make([]*core.Var[int], pushes)
		for i := range items {
			items[i] = core.NewVar(rt, "deque.item", 0)
		}
		bottom := main.NewAtomic64("deque.bottom", 0)
		top := main.NewAtomic64("deque.top", 0)

		thief := main.Spawn("thief", func(t *core.Thread) {
			// One steal attempt, as in the benchmark's main thread.
			tp := top.Load(t, core.Relaxed)
			b := bottom.Load(t, core.Relaxed)
			// The racy window: a steal that observes the half-built deque
			// mid-push-run takes an item whose write is not yet published.
			if b > tp && b < pushes {
				if _, ok := top.CompareExchange(t, tp, tp+1, core.Relaxed, core.Relaxed); ok {
					_ = items[tp].Read(t) // races with the owner's write
				}
			}
		})
		owner := main.Spawn("owner", func(t *core.Thread) {
			for i := 0; i < pushes; i++ {
				items[i].Write(t, i)
				bottom.Store(t, uint64(i+1), core.Relaxed)
			}
		})
		main.Join(thief)
		main.Join(owner)
	}
}

// dekkerFences: Dekker's mutual exclusion with acquire/release fences
// where sequentially consistent fences are required. Both threads can read
// a stale 0 for the other's flag, enter together, and race on the shared
// cell — with probability governed by the stale-read draws, so roughly
// half of executions race under every controlled strategy, as in Table 1.
func dekkerFences(rt *core.Runtime) func(*core.Thread) {
	return func(main *core.Thread) {
		flag0 := main.NewAtomic64("dekker.flag0", 0)
		flag1 := main.NewAtomic64("dekker.flag1", 0)
		shared := core.NewVar(rt, "dekker.shared", 0)
		t1 := main.Spawn("t1", func(t *core.Thread) {
			flag0.Store(t, 1, core.Relaxed)
			t.Fence(core.AcqRel) // should be SeqCst: the seeded bug
			if flag1.Load(t, core.Relaxed) == 0 {
				shared.Write(t, 1)
			}
		})
		t2 := main.Spawn("t2", func(t *core.Thread) {
			flag1.Store(t, 1, core.Relaxed)
			t.Fence(core.AcqRel)
			if flag0.Load(t, core.Relaxed) == 0 {
				shared.Write(t, 2)
			}
		})
		main.Join(t1)
		main.Join(t2)
	}
}

// linuxRWLocks: the Linux-kernel-style reader/writer lock. The writer's
// unlock is a relaxed store (the seeded bug: it should be release), so a
// reader that acquires after the writer has unlocked synchronises with
// nothing and its read of the protected data races with the writer's
// write. Reader-first schedules (FCFS) order the accesses race-free.
func linuxRWLocks(rt *core.Runtime) func(*core.Thread) {
	const writerBit = uint64(1) << 31
	return func(main *core.Thread) {
		lock := main.NewAtomic64("rwlock.lock", 0)
		data := core.NewVar(rt, "rwlock.data", 0)

		reader := main.Spawn("reader", func(t *core.Thread) {
			for spin := 0; spin < 64; spin++ {
				old := lock.Add(t, 1, core.Acquire)
				if old&writerBit == 0 {
					_ = data.Read(t)
					lock.Add(t, ^uint64(0), core.Release) // -1
					return
				}
				lock.Add(t, ^uint64(0), core.Release)
				t.Yield()
			}
		})
		writer := main.Spawn("writer", func(t *core.Thread) {
			for spin := 0; spin < 64; spin++ {
				if _, ok := lock.CompareExchange(t, 0, writerBit, core.Acquire, core.Relaxed); ok {
					data.Write(t, 7)
					lock.Store(t, 0, core.Relaxed) // bug: should be Release
					return
				}
				t.Yield()
			}
		})
		main.Join(reader)
		main.Join(writer)
	}
}

// mcsLock: an MCS-style queue lock whose contended handoff is a relaxed
// store to the successor's wait flag (the seeded bug). The race therefore
// only manifests when the second thread enqueues while the first holds the
// lock — frequent under random scheduling, rare under FCFS arrival where
// the fast path wins.
func mcsLock(rt *core.Runtime) func(*core.Thread) {
	return func(main *core.Thread) {
		tail := main.NewAtomic64("mcs.tail", 0)
		waiting := []*core.Atomic64{
			main.NewAtomic64("mcs.wait1", 0),
			main.NewAtomic64("mcs.wait2", 0),
		}
		data := core.NewVar(rt, "mcs.data", 0)

		worker := func(me uint64) func(*core.Thread) {
			return func(t *core.Thread) {
				// Acquire.
				contended := false
				prev := tail.Exchange(t, me, core.AcqRel)
				if prev != 0 {
					contended = true
					waiting[me-1].Store(t, 1, core.Relaxed)
					for spin := 0; spin < 256; spin++ {
						if waiting[me-1].Load(t, core.Acquire) == 0 {
							break
						}
					}
				}
				_ = contended
				// Critical section.
				data.Update(t, func(v int) int { return v + 1 })
				// Release.
				if _, ok := tail.CompareExchange(t, me, 0, core.Release, core.Relaxed); !ok {
					// A successor exists: relaxed handoff (the bug — the
					// successor's acquire load pairs with nothing).
					other := 3 - me
					waiting[other-1].Store(t, 0, core.Relaxed)
				}
			}
		}
		h1 := main.Spawn("w1", worker(1))
		h2 := main.Spawn("w2", worker(2))
		main.Join(h1)
		main.Join(h2)
	}
}

// mpmcQueue: a bounded multi-producer queue where slot reservation is a
// relaxed fetch-add, so a consumer's read of the slot body is not ordered
// after the producer's write. The consumer polls once and exits if the
// queue looks empty, so FCFS consumer-first schedules are race-free.
func mpmcQueue(rt *core.Runtime) func(*core.Thread) {
	const slots = 4
	return func(main *core.Thread) {
		buf := make([]*core.Var[int], slots)
		for i := range buf {
			buf[i] = core.NewVar(rt, "mpmc.slot", 0)
		}
		head := main.NewAtomic64("mpmc.head", 0)
		tailIdx := main.NewAtomic64("mpmc.tail", 0)

		consumer := main.Spawn("consumer", func(t *core.Thread) {
			h := head.Load(t, core.Relaxed)
			tl := tailIdx.Load(t, core.Relaxed)
			if tl < h {
				idx := tailIdx.Add(t, 1, core.Relaxed)
				if idx < slots {
					_ = buf[idx].Read(t) // races with the producer's write
				}
			}
		})
		producer := main.Spawn("producer", func(t *core.Thread) {
			for i := 0; i < slots; i++ {
				idx := head.Add(t, 1, core.Relaxed)
				if idx < slots {
					buf[idx].Write(t, i+100)
				}
			}
		})
		main.Join(consumer)
		main.Join(producer)
	}
}

// msQueue: a Michael-Scott-style queue stress with relaxed head/tail
// updates, enqueueing and dequeueing enough items that the unsynchronised
// value handoff races on essentially every execution (the paper reports a
// 100% rate in every mode), and enough operations that this is the
// slowest program in the suite.
func msQueue(rt *core.Runtime) func(*core.Thread) {
	const items = 128
	return func(main *core.Thread) {
		values := make([]*core.Var[int], items)
		for i := range values {
			values[i] = core.NewVar(rt, "msq.value", 0)
		}
		head := main.NewAtomic64("msq.head", 0)
		tail := main.NewAtomic64("msq.tail", 0)

		producer := main.Spawn("producer", func(t *core.Thread) {
			for i := 0; i < items; i++ {
				values[i].Write(t, i)
				tail.Add(t, 1, core.Relaxed) // bug: should be Release
			}
		})
		consumer := main.Spawn("consumer", func(t *core.Thread) {
			taken := uint64(0)
			for spin := 0; spin < items*8; spin++ {
				tl := tail.Load(t, core.Relaxed)
				if taken < tl && taken < items {
					_ = values[taken].Read(t) // unsynchronised handoff
					taken++
					head.Store(t, taken, core.Relaxed)
				}
				if taken == items {
					return
				}
			}
		})
		main.Join(producer)
		main.Join(consumer)
	}
}
