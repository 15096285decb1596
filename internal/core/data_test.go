package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/sched"
)

func TestSpinlockViaAtomicBool(t *testing.T) {
	// A test-and-set spinlock built from Atomic64.Exchange with acq_rel
	// ordering is race-free for the data it guards.
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 3, Seed2: 9, ReportRaces: true})
	rep, err := rt.Run(func(main *Thread) {
		lock := main.NewAtomic64("spin", 0)
		data := NewVar(rt, "data", 0)
		var hs []*Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, main.Spawn("w", func(w *Thread) {
				for n := 0; n < 4; n++ {
					for lock.Exchange(w, 1, AcqRel) != 0 {
						w.Yield()
					}
					data.Update(w, func(v int) int { return v + 1 })
					lock.Store(w, 0, Release)
				}
			}))
		}
		for _, h := range hs {
			main.Join(h)
		}
		if data.Read(main) != 12 {
			panic("spinlock lost updates")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceCount() != 0 {
		t.Errorf("false positive under TAS spinlock: %v", rep.Races)
	}
}

func TestRelaxedSpinlockIsRacy(t *testing.T) {
	// The same spinlock with relaxed ordering must race: no
	// happens-before edge between critical sections.
	raced := false
	for seed := uint64(1); seed <= 30 && !raced; seed++ {
		rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: seed, Seed2: seed * 3, ReportRaces: true})
		rep, err := rt.Run(func(main *Thread) {
			lock := main.NewAtomic64("spin", 0)
			data := NewVar(rt, "data", 0)
			var hs []*Handle
			for i := 0; i < 2; i++ {
				hs = append(hs, main.Spawn("w", func(w *Thread) {
					for lock.Exchange(w, 1, Relaxed) != 0 {
						w.Yield()
					}
					data.Update(w, func(v int) int { return v + 1 })
					lock.Store(w, 0, Relaxed)
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		raced = rep.RaceCount() > 0
	}
	if !raced {
		t.Error("relaxed spinlock never raced across 30 seeds")
	}
}

func TestMutexTryLock(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	_, err := rt.Run(func(main *Thread) {
		mu := rt.NewMutex("mu")
		if !mu.TryLock(main) {
			panic("trylock of free mutex failed")
		}
		if mu.TryLock(main) {
			panic("re-trylock of held mutex succeeded")
		}
		mu.Unlock(main)
		if !mu.TryLock(main) {
			panic("trylock after unlock failed")
		}
		mu.Unlock(main)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnlockNotOwnedPanics(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	_, err := rt.Run(func(main *Thread) {
		mu := rt.NewMutex("mu")
		mu.Unlock(main)
	})
	if err == nil || !strings.Contains(err.Error(), "unlock of mutex not held") {
		t.Fatalf("expected unlock panic, got %v", err)
	}
}

// TestRelockFails: Lock of a mutex the caller already holds fails the run
// at that operation, naming the mutex, even while another thread keeps the
// run busy (it would otherwise end only at MaxTicks). TryLock of it just
// reports false.
func TestRelockFails(t *testing.T) {
	const maxTicks = 10_000
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 1, Seed2: 2, MaxTicks: maxTicks})
	tried := true
	rep, err := rt.Run(func(main *Thread) {
		quit := main.NewAtomic64("quit", 0)
		spinner := main.Spawn("spinner", func(w *Thread) {
			for quit.Load(w, SeqCst) == 0 {
				w.Yield()
			}
		})
		mu := rt.NewMutex("relock.mu")
		mu.Lock(main)
		tried = mu.TryLock(main)
		mu.Lock(main)
		quit.Store(main, 1, SeqCst)
		main.Join(spinner)
	})
	if err == nil || !strings.Contains(err.Error(), "lock of mutex already held by this thread: relock.mu") {
		t.Fatalf("expected relock failure, got %v", err)
	}
	if tried {
		t.Error("TryLock of a mutex the caller holds returned true")
	}
	if rep.Ticks >= maxTicks {
		t.Errorf("relock failed only after %d ticks", rep.Ticks)
	}
}

// TestLeakedLockFailsRun runs, each as a worker thread body, the four ways
// a function can leave a mutex locked or release the wrong one, plus an
// unlock skipped inside a loop, down their leaking paths. Each run must
// fail, naming the worker and the mutex: by the exit check, by Unlock's
// ownership check, or, for the loop, by the relock check on its second
// pass.
func TestLeakedLockFailsRun(t *testing.T) {
	earlyReturn := func(rt *Runtime, th *Thread, cond bool) {
		mu := rt.NewMutex("early.mu")
		mu.Lock(th)
		if cond {
			return
		}
		mu.Unlock(th)
	}
	valueReturnLeak := func(rt *Runtime, th *Thread, n int) int {
		l := rt.NewMutex("value.l")
		l.Lock(th)
		if n > 0 {
			return n
		}
		l.Unlock(th)
		return 0
	}
	wrongReceiver := func(th *Thread, a, b *Mutex) {
		a.Lock(th)
		b.Unlock(th)
	}
	neverReleased := func(rt *Runtime, th *Thread) {
		mu := rt.NewMutex("never.mu")
		mu.Lock(th)
	}
	skippedInLoop := func(rt *Runtime, th *Thread, n int) {
		l := rt.NewMutex("loop.l")
		for i := 0; i < n; i++ {
			l.Lock(th)
			if i == 0 {
				continue
			}
			l.Unlock(th)
		}
	}
	cases := []struct {
		name string
		body func(rt *Runtime) func(*Thread)
		want string
	}{
		{"earlyReturn", func(rt *Runtime) func(*Thread) {
			return func(w *Thread) { earlyReturn(rt, w, true) }
		}, "exit while holding mutex early.mu"},
		{"valueReturnLeak", func(rt *Runtime) func(*Thread) {
			return func(w *Thread) { valueReturnLeak(rt, w, 1) }
		}, "exit while holding mutex value.l"},
		{"wrongReceiver", func(rt *Runtime) func(*Thread) {
			a, b := rt.NewMutex("wrong.a"), rt.NewMutex("wrong.b")
			return func(w *Thread) { wrongReceiver(w, a, b) }
		}, "unlock of mutex not held by this thread: wrong.b"},
		{"neverReleased", func(rt *Runtime) func(*Thread) {
			return func(w *Thread) { neverReleased(rt, w) }
		}, "exit while holding mutex never.mu"},
		{"skippedUnlockInLoop", func(rt *Runtime) func(*Thread) {
			return func(w *Thread) { skippedInLoop(rt, w, 3) }
		}, "lock of mutex already held by this thread: loop.l"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 1, Seed2: 2})
			body := c.body(rt)
			_, err := rt.Run(func(main *Thread) {
				main.Join(main.Spawn("worker", body))
			})
			if err == nil || !strings.Contains(err.Error(), "thread 1 (worker)") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want thread 1 (worker) and %q", err, c.want)
			}
		})
	}
}

func TestLeakedThreadsReported(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2})
	rep, err := rt.Run(func(main *Thread) {
		quit := main.NewAtomic64("q", 0)
		main.Spawn("leaker", func(w *Thread) {
			for quit.Load(w, SeqCst) == 0 {
				w.Yield()
			}
		})
		for i := 0; i < 5; i++ {
			main.Yield()
		}
		// Main returns without joining or stopping the leaker.
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaked == 0 {
		t.Error("leaked thread not reported")
	}
}

func TestMaxTicksSurfacesStalledError(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, MaxTicks: 50})
	_, err := rt.Run(func(main *Thread) {
		for {
			main.Yield()
		}
	})
	var st *sched.StalledError
	if !errors.As(err, &st) {
		t.Fatalf("expected StalledError, got %v", err)
	}
}

func TestWallTimeoutAborts(t *testing.T) {
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2,
		WallTimeout: 300 * time.Millisecond,
		MaxTicks:    1 << 40,
	})
	start := time.Now()
	_, err := rt.Run(func(main *Thread) {
		for {
			main.Yield()
		}
	})
	if err == nil {
		t.Fatal("wall timeout did not fire")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("abort took %v", time.Since(start))
	}
}

func TestApplicationPanicSurfaced(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 1, Seed2: 2})
	_, err := rt.Run(func(main *Thread) {
		h := main.Spawn("boom", func(w *Thread) {
			w.Yield()
			panic("kaboom")
		})
		main.Join(h)
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestThreadRandDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) uint64 {
		rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: seed, Seed2: 2})
		var v uint64
		_, err := rt.Run(func(main *Thread) {
			v = main.Rand().Uint64()
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if draw(7) != draw(7) {
		t.Error("Thread.Rand not deterministic for equal seeds")
	}
	if draw(7) == draw(8) {
		t.Error("Thread.Rand identical across different seeds")
	}
}

func TestAllocDeterministicMode(t *testing.T) {
	addrs := func(det bool) []uint64 {
		rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, DeterministicAlloc: det})
		var out []uint64
		_, err := rt.Run(func(main *Thread) {
			for i := 0; i < 8; i++ {
				out = append(out, rt.Alloc(64))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := addrs(true)
	b := addrs(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deterministic allocator varied across runs")
		}
	}
	// Randomised mode: address ORDER varies across runs (with high
	// probability over 8 allocations in 8 regions).
	same := 0
	c := addrs(false)
	d := addrs(false)
	for i := range c {
		if c[i] == d[i] {
			same++
		}
	}
	if same == len(c) {
		t.Error("randomised allocator produced identical layouts")
	}
}

// TestDesyncReportIncludesFlightRecorder: a hard desync surfaces the
// scheduler's recent-tick flight recorder for diagnosis.
func TestDesyncReportIncludesFlightRecorder(t *testing.T) {
	world := env.NewWorld(2)
	srv := world.ExternalListen(7300)
	go func() {
		if conn, err := srv.Accept(2 * time.Second); err == nil {
			conn.Send([]byte("payload"))
		}
	}()
	program := func(rounds int) func(rt *Runtime) func(*Thread) {
		return func(rt *Runtime) func(*Thread) {
			return func(main *Thread) {
				fd := main.Socket()
				main.Connect(fd, 7300)
				for i := 0; i < rounds; i++ {
					main.Recv(fd, 4)
					main.Yield()
				}
			}
		}
	}
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, Record: true, World: world})
	rec, err := rt.Run(program(3)(rt))
	if err != nil {
		t.Fatal(err)
	}
	// Replay a DIFFERENT program (more recv rounds): the SYSCALL stream
	// exhausts and the replay hard-desynchronises.
	rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: rec.Demo})
	rep, err := rt2.Run(program(9)(rt2))
	var de *demo.DesyncError
	if !errors.As(err, &de) {
		t.Fatalf("expected DesyncError, got %v", err)
	}
	if len(rep.RecentSchedule) == 0 {
		t.Error("desync report carries no flight-recorder data")
	}
}
