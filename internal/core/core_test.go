package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/sched"
)

func newTestRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	if opts.MaxTicks == 0 {
		opts.MaxTicks = 1_000_000
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt
}

func TestRunEmptyProgram(t *testing.T) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue, demo.StrategyPCT} {
		rt := newTestRuntime(t, Options{Strategy: strat, Seed1: 1, Seed2: 2})
		rep, err := rt.Run(func(th *Thread) {})
		if err != nil {
			t.Fatalf("%v: Run: %v", strat, err)
		}
		if rep.Ticks == 0 {
			t.Errorf("%v: expected at least the exit tick", strat)
		}
	}
}

func TestSpawnJoinCounter(t *testing.T) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		rt := newTestRuntime(t, Options{Strategy: strat, Seed1: 7, Seed2: 9})
		total := 0
		_, err := rt.Run(func(main *Thread) {
			counter := NewVar(rt, "counter", 0)
			mu := rt.NewMutex("mu")
			var hs []*Handle
			for i := 0; i < 4; i++ {
				hs = append(hs, main.Spawn("worker", func(w *Thread) {
					for j := 0; j < 10; j++ {
						mu.Lock(w)
						counter.Update(w, func(v int) int { return v + 1 })
						mu.Unlock(w)
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
			total = counter.Read(main)
		})
		if err != nil {
			t.Fatalf("%v: Run: %v", strat, err)
		}
		if total != 40 {
			t.Errorf("%v: counter = %d, want 40", strat, total)
		}
	}
}

func TestMutexProtectedNoRace(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 3, Seed2: 4, ReportRaces: true})
	rep, err := rt.Run(func(main *Thread) {
		x := NewVar(rt, "x", 0)
		mu := rt.NewMutex("mu")
		h := main.Spawn("w", func(w *Thread) {
			mu.Lock(w)
			x.Write(w, 1)
			mu.Unlock(w)
		})
		mu.Lock(main)
		x.Write(main, 2)
		mu.Unlock(main)
		main.Join(h)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.RaceCount() != 0 {
		t.Errorf("unexpected races: %v", rep.Races)
	}
}

func TestUnprotectedRaceDetected(t *testing.T) {
	found := 0
	for seed := uint64(0); seed < 20; seed++ {
		rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: seed, Seed2: seed + 1, ReportRaces: true})
		rep, err := rt.Run(func(main *Thread) {
			x := NewVar(rt, "x", 0)
			h := main.Spawn("w", func(w *Thread) {
				x.Write(w, 1)
			})
			x.Write(main, 2)
			main.Join(h)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.RaceCount() > 0 {
			found++
		}
	}
	if found == 0 {
		t.Error("write-write race never detected across 20 seeds")
	}
}

func TestDeadlockDetected(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 5, Seed2: 6})
	_, err := rt.Run(func(main *Thread) {
		a := rt.NewMutex("a")
		b := rt.NewMutex("b")
		h := main.Spawn("w", func(w *Thread) {
			b.Lock(w)
			w.Yield()
			a.Lock(w)
			a.Unlock(w)
			b.Unlock(w)
		})
		a.Lock(main)
		main.Yield()
		b.Lock(main)
		b.Unlock(main)
		a.Unlock(main)
		main.Join(h)
	})
	var dl *sched.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
}

// TestDeadlockDetectedWithoutReschedules: with forced reschedules off the
// watchdog still checks at the default 2ms quantum, so a deadlock ends the
// run within a few checks.
func TestDeadlockDetectedWithoutReschedules(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 5, Seed2: 6, RescheduleQuantum: -1})
	start := time.Now()
	_, err := rt.Run(func(main *Thread) {
		m := rt.NewMutex("m")
		m.Lock(main)
		main.Join(main.Spawn("blocked", func(w *Thread) {
			m.Lock(w)
			m.Unlock(w)
		}))
	})
	elapsed := time.Since(start)
	var dl *sched.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("deadlock declared after %v, want within 100ms", elapsed)
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		rt := newTestRuntime(t, Options{Strategy: strat, Seed1: 11, Seed2: 12})
		got := 0
		_, err := rt.Run(func(main *Thread) {
			mu := rt.NewMutex("mu")
			cv := rt.NewCond("cv", mu)
			ready := NewVar(rt, "ready", 0)
			h := main.Spawn("waiter", func(w *Thread) {
				mu.Lock(w)
				for ready.Read(w) == 0 {
					cv.Wait(w)
				}
				got = ready.Read(w)
				mu.Unlock(w)
			})
			mu.Lock(main)
			ready.Write(main, 42)
			cv.Signal(main)
			mu.Unlock(main)
			main.Join(h)
		})
		if err != nil {
			t.Fatalf("%v: Run: %v", strat, err)
		}
		if got != 42 {
			t.Errorf("%v: waiter saw %d, want 42", strat, got)
		}
	}
}

func TestRecordReplayRoundTripRandom(t *testing.T) {
	runOnce := func(opts Options) (*Report, []byte) {
		rt := newTestRuntime(t, opts)
		rep, err := rt.Run(func(main *Thread) {
			x := main.NewAtomic64("x", 0)
			var hs []*Handle
			for i := 0; i < 3; i++ {
				v := uint64(i + 1)
				hs = append(hs, main.Spawn("w", func(w *Thread) {
					x.Add(w, v, SeqCst)
					w.Printf("w%d done\n", v)
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
			main.Printf("sum=%d\n", x.Load(main, SeqCst))
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep, rep.Output
	}
	rec, out1 := runOnce(Options{Strategy: demo.StrategyRandom, Seed1: 77, Seed2: 88, Record: true})
	if rec.Demo == nil {
		t.Fatal("no demo recorded")
	}
	rep2, out2 := runOnce(Options{Strategy: demo.StrategyRandom, Replay: rec.Demo})
	if rep2.SoftDesync {
		t.Error("replay soft-desynchronised")
	}
	if string(out1) != string(out2) {
		t.Errorf("replay output %q != recorded %q", out2, out1)
	}
}

func TestRecordReplayRoundTripQueue(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, Record: true})
	program := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			mu := rt.NewMutex("mu")
			sum := NewVar(rt, "sum", 0)
			var hs []*Handle
			for i := 0; i < 4; i++ {
				v := i
				hs = append(hs, main.Spawn("w", func(w *Thread) {
					mu.Lock(w)
					sum.Update(w, func(s int) int { return s + v })
					mu.Unlock(w)
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
			main.Printf("sum=%d\n", sum.Read(main))
		}
	}
	rec, err := rt.Run(program(rt))
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: rec.Demo})
	rep2, err := rt2.Run(program(rt2))
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if rep2.SoftDesync {
		t.Error("queue replay soft-desynchronised")
	}
	if string(rep2.Output) != string(rec.Output) {
		t.Errorf("replay output %q != recorded %q", rep2.Output, rec.Output)
	}
	if rep2.Ticks != rec.Ticks {
		t.Errorf("replay ticks %d != recorded %d", rep2.Ticks, rec.Ticks)
	}
}

func TestSignalHandlerRuns(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 2, Seed2: 3})
	handled := false
	_, err := rt.Run(func(main *Thread) {
		quit := main.NewAtomic64("quit", 0)
		main.Signal(15, func(h *Thread, sig int32) {
			quit.Store(h, 1, SeqCst)
		})
		main.Raise(15)
		for i := 0; i < 1000 && quit.Load(main, SeqCst) == 0; i++ {
			main.Yield()
		}
		handled = quit.Load(main, SeqCst) == 1
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !handled {
		t.Error("signal handler never ran")
	}
}

func TestUncontrolledModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"tsan11", Options{Uncontrolled: true, ReportRaces: true, Seed1: 1, Seed2: 2}},
		{"native", Options{Uncontrolled: true, DisableRaces: true, Seed1: 1, Seed2: 2}},
	} {
		rt := newTestRuntime(t, tc.opts)
		total := uint64(0)
		_, err := rt.Run(func(main *Thread) {
			x := main.NewAtomic64("x", 0)
			mu := rt.NewMutex("mu")
			guarded := NewVar(rt, "g", 0)
			var hs []*Handle
			for i := 0; i < 4; i++ {
				hs = append(hs, main.Spawn("w", func(w *Thread) {
					for j := 0; j < 50; j++ {
						x.Add(w, 1, SeqCst)
						mu.Lock(w)
						guarded.Update(w, func(v int) int { return v + 1 })
						mu.Unlock(w)
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
			total = x.Load(main, SeqCst)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if total != 200 {
			t.Errorf("%s: atomic sum %d, want 200", tc.name, total)
		}
	}
}

func TestUncontrolledRejectsRecording(t *testing.T) {
	_, err := New(Options{Uncontrolled: true, Record: true})
	if err == nil {
		t.Fatal("expected error for uncontrolled+record")
	}
}

func TestUncontrolledCondSignal(t *testing.T) {
	rt := newTestRuntime(t, Options{Uncontrolled: true, ReportRaces: true})
	got := 0
	_, err := rt.Run(func(main *Thread) {
		mu := rt.NewMutex("mu")
		cv := rt.NewCond("cv", mu)
		ready := NewVar(rt, "ready", 0)
		h := main.Spawn("waiter", func(w *Thread) {
			mu.Lock(w)
			for ready.Read(w) == 0 {
				cv.Wait(w)
			}
			got = ready.Read(w)
			mu.Unlock(w)
		})
		mu.Lock(main)
		ready.Write(main, 7)
		cv.Signal(main)
		mu.Unlock(main)
		main.Join(h)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 7 {
		t.Errorf("waiter saw %d, want 7", got)
	}
}

func TestDelayStrategyRunsAndReplays(t *testing.T) {
	program := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			x := main.NewAtomic64("x", 0)
			mu := rt.NewMutex("mu")
			g := NewVar(rt, "g", 0)
			var hs []*Handle
			for i := 0; i < 3; i++ {
				hs = append(hs, main.Spawn("w", func(w *Thread) {
					for j := 0; j < 8; j++ {
						x.Add(w, 1, SeqCst)
						mu.Lock(w)
						g.Update(w, func(v int) int { return v + 1 })
						mu.Unlock(w)
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
			main.Printf("x=%d g=%d\n", x.Load(main, SeqCst), g.Read(main))
		}
	}
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyDelay, Seed1: 5, Seed2: 7, Record: true})
	rec, err := rt.Run(program(rt))
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Output) != "x=24 g=24\n" {
		t.Errorf("output %q", rec.Output)
	}
	rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyDelay, Replay: rec.Demo})
	rep, err := rt2.Run(program(rt2))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if string(rep.Output) != string(rec.Output) || rep.Ticks != rec.Ticks {
		t.Error("delay-strategy replay diverged")
	}
}

func TestDelayStrategyDeterministic(t *testing.T) {
	run := func() uint64 {
		rt := newTestRuntime(t, Options{Strategy: demo.StrategyDelay, Seed1: 11, Seed2: 13})
		rep, err := rt.Run(func(main *Thread) {
			x := main.NewAtomic64("x", 0)
			h := main.Spawn("w", func(w *Thread) {
				for i := 0; i < 10; i++ {
					x.Add(w, 3, Relaxed)
				}
			})
			for i := 0; i < 10; i++ {
				x.Add(main, 5, Relaxed)
			}
			main.Join(h)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Ticks
	}
	if run() != run() {
		t.Error("delay strategy not deterministic for fixed seeds")
	}
}
