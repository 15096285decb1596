package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/demo"
)

// Signal-handling coverage (§3.2, §4.3, §4.5), including the hardest path:
// an asynchronous signal arriving while the receiving thread is disabled
// on a mutex, which re-enables it via an ASYNC Signal_wakeup event that
// replay must apply at the same tick.

func TestSignalWhileBlockedOnMutexRecordReplay(t *testing.T) {
	program := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			mu := rt.NewMutex("mu")
			handled := main.NewAtomic64("handled", 0)
			main.Signal(10, func(h *Thread, sig int32) {
				handled.Store(h, uint64(sig), SeqCst)
				h.Printf("handler ran on %s\n", h.Name())
			})

			// The victim blocks on a mutex held by main.
			mu.Lock(main)
			victimBlocked := make(chan struct{})
			h := main.Spawn("victim", func(v *Thread) {
				close(victimBlocked)
				mu.Lock(v)
				mu.Unlock(v)
				v.Printf("victim got the lock, handled=%d\n", handled.Load(v, SeqCst))
			})
			// Busy-hold the lock long enough for the victim to block, then
			// deliver a signal from the environment to the MAIN thread
			// while victim is disabled (main installed the handler, so
			// main is the target) — then release.
			<-victimBlocked
			for i := 0; i < 20; i++ {
				main.Yield()
			}
			rt.World().Kill(10)
			for i := 0; i < 20; i++ {
				main.Yield()
			}
			mu.Unlock(main)
			main.Join(h)
		}
	}

	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 3, Seed2: 4, Record: true})
	rec, err := rt.Run(program(rt))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if !strings.Contains(string(rec.Output), "handler ran") {
		t.Fatalf("handler never ran during record: %q", rec.Output)
	}
	if len(rec.Demo.Signals) == 0 {
		t.Fatal("SIGNAL stream empty")
	}

	rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: rec.Demo})
	rep, err := rt2.Run(program(rt2))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if string(rep.Output) != string(rec.Output) {
		t.Errorf("replay output %q != recorded %q", rep.Output, rec.Output)
	}
	if rep.SoftDesync {
		t.Error("soft desync")
	}
}

// TestSignalWakeupEventRecorded forces the disabled-thread wakeup: the
// handler-owning thread itself is blocked on a mutex when the signal
// arrives, so the scheduler must emit an AsyncSignalWakeup.
func TestSignalWakeupEventRecorded(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		program := func(rt *Runtime) func(*Thread) {
			return func(main *Thread) {
				mu := rt.NewMutex("mu")
				quit := main.NewAtomic64("quit", 0)

				mu.Lock(main)
				blocked := make(chan struct{})
				h := main.Spawn("owner", func(o *Thread) {
					o.Signal(12, func(ht *Thread, sig int32) {
						quit.Store(ht, 1, SeqCst)
						ht.Printf("woken handler\n")
					})
					close(blocked)
					mu.Lock(o) // blocks: main holds it and never releases
					mu.Unlock(o)
				})
				<-blocked
				// Let the owner block on mu. Its state is read inside one
				// of main's critical sections, where it changes only with
				// the schedule, so record and replay yield alike.
				for !ownerBlocked(main, h.TID()) {
					main.Yield()
				}
				rt.World().Kill(12)
				// Wait for the handler, then release the lock so the
				// owner can finish.
				for quit.Load(main, SeqCst) == 0 {
					main.Yield()
				}
				mu.Unlock(main)
				main.Join(h)
			}
		}
		rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: seed, Seed2: seed + 1, Record: true})
		rec, err := rt.Run(program(rt))
		if err != nil {
			t.Fatalf("seed %d record: %v", seed, err)
		}
		foundWakeup := false
		for _, a := range rec.Demo.Asyncs {
			if a.Kind == demo.AsyncSignalWakeup {
				foundWakeup = true
			}
		}
		if !foundWakeup {
			t.Fatalf("seed %d: no AsyncSignalWakeup recorded (asyncs: %v)", seed, rec.Demo.Asyncs)
		}
		rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: rec.Demo})
		rep, err := rt2.Run(program(rt2))
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if string(rep.Output) != string(rec.Output) {
			t.Errorf("seed %d: output mismatch", seed)
		}
		if left := rt2.rep.Cursors().AsyncsLeft; left != 0 {
			t.Errorf("seed %d: replay left %d ASYNC entries unconsumed (asyncs: %v, final tick %d)",
				seed, left, rec.Demo.Asyncs, rec.Demo.FinalTick)
		}
	}
}

// TestUnappliedAsyncEntryIsLeftover: a recorded ASYNC entry that replay
// never applies is a leftover constraint, like an undelivered signal. A
// reschedule at tick 0 passes Validate, but no Tick ever applies it: strict
// replay must fail on the ASYNC stream and tolerant replay must diverge.
func TestUnappliedAsyncEntryIsLeftover(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 3, Seed2: 4, Record: true})
	rec, err := rt.Run(clockProgram(rt))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	d := rec.Demo.Clone()
	d.Asyncs = append(d.Asyncs, demo.AsyncEvent{Kind: demo.AsyncReschedule, Tick: 0})
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate rejected a tick-0 reschedule: %v", err)
	}
	strict := newTestRuntime(t, ReplayOptions(d))
	_, err = strict.Run(clockProgram(strict))
	var de *demo.DesyncError
	if !errors.As(err, &de) || de.Stream != "ASYNC" {
		t.Fatalf("strict replay: err = %v, want an ASYNC desync", err)
	}
	tol := newTestRuntime(t, TolerantReplayOptions(d))
	rep, err := tol.Run(clockProgram(tol))
	if err != nil || rep.Diverged == nil {
		t.Fatalf("tolerant replay: err = %v, diverged = %v; want a divergence", err, rep.Diverged)
	}
}

// ownerBlocked reports, from inside one of main's critical sections,
// whether thread tid is disabled waiting on a mutex.
func ownerBlocked(main *Thread, tid TID) bool {
	blocked := false
	main.critical(func() {
		for _, s := range main.rt.sch.ThreadStates() {
			if s.TID == tid {
				blocked = !s.Enabled && !s.Done && strings.HasPrefix(s.Blocked, "waiting on mutex")
			}
		}
	})
	return blocked
}

// TestUnhandledSignalIgnored: signals with no installed handler are
// dropped (SIG_IGN default).
func TestUnhandledSignalIgnored(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 1, Seed2: 2})
	_, err := rt.Run(func(main *Thread) {
		rt.World().Kill(9)
		for i := 0; i < 10; i++ {
			main.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultipleSignalsQueue: several pending signals are handled in order,
// one handler entry per visible-operation boundary.
func TestMultipleSignalsQueue(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, Record: true})
	rep, err := rt.Run(func(main *Thread) {
		main.Signal(20, func(h *Thread, sig int32) { h.Printf("h20\n") })
		main.Signal(21, func(h *Thread, sig int32) { h.Printf("h21\n") })
		main.Raise(20)
		main.Raise(21)
		main.Raise(20)
		for i := 0; i < 10; i++ {
			main.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := string(rep.Output)
	if strings.Count(out, "h20") != 2 || strings.Count(out, "h21") != 1 {
		t.Errorf("handler counts wrong in %q", out)
	}
	if len(rep.Demo.Signals) != 3 {
		t.Errorf("SIGNAL stream has %d entries, want 3", len(rep.Demo.Signals))
	}
}

// TestHandlerVisibleOpsNest: a handler body performing visible operations
// (atomics, prints) nests correctly inside the interrupted thread's
// execution and replays.
func TestHandlerVisibleOpsNest(t *testing.T) {
	program := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			counter := main.NewAtomic64("c", 0)
			main.Signal(30, func(h *Thread, sig int32) {
				for i := 0; i < 5; i++ {
					counter.Add(h, 1, SeqCst)
				}
				h.Printf("handler done c=%d\n", counter.Load(h, SeqCst))
			})
			main.Raise(30)
			for i := 0; i < 20; i++ {
				counter.Add(main, 10, SeqCst)
			}
			main.Printf("final=%d\n", counter.Load(main, SeqCst))
		}
	}
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 2, Seed2: 9, Record: true})
	rec, err := rt.Run(program(rt))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec.Output), "final=205") {
		t.Errorf("unexpected final output: %q", rec.Output)
	}
	rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Replay: rec.Demo})
	rep, err := rt2.Run(program(rt2))
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Output) != string(rec.Output) {
		t.Errorf("replay diverged: %q vs %q", rep.Output, rec.Output)
	}
}

// TestTimedWaitEatsSignalSemantics: a timed cond waiter can consume a
// signal even though it stays enabled (§3.2).
func TestTimedWaitEatsSignal(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 4, Seed2: 5})
	sawSignalled := false
	_, err := rt.Run(func(main *Thread) {
		mu := rt.NewMutex("mu")
		cv := rt.NewCond("cv", mu)
		done := main.NewAtomic64("done", 0)
		h := main.Spawn("timed", func(w *Thread) {
			mu.Lock(w)
			// Loop until signalled or told to stop: a timed waiter stays
			// enabled and may spin through many timeouts before a signal
			// lands inside its registered window.
			for {
				if cv.TimedWait(w) == Signalled {
					sawSignalled = true
					break
				}
				if done.Load(w, SeqCst) != 0 {
					break
				}
			}
			mu.Unlock(w)
		})
		for i := 0; i < 30; i++ {
			mu.Lock(main)
			cv.Signal(main)
			mu.Unlock(main)
			main.Yield()
		}
		done.Store(main, 1, SeqCst)
		main.Join(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSignalled {
		t.Error("timed waiter never ate a signal across 30 signals")
	}
}

// TestWorldSignalRoutingToInstaller: env.Kill routes to whichever thread
// installed the handler, not blindly to main.
func TestWorldSignalRoutingToInstaller(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 7, Seed2: 8})
	var handlerThread string
	_, err := rt.Run(func(main *Thread) {
		ready := make(chan struct{})
		quit := main.NewAtomic64("q", 0)
		h := main.Spawn("sigowner", func(o *Thread) {
			o.Signal(16, func(ht *Thread, sig int32) {
				handlerThread = ht.Name()
				quit.Store(ht, 1, SeqCst)
			})
			close(ready)
			for quit.Load(o, SeqCst) == 0 {
				o.Yield()
			}
		})
		<-ready
		rt.World().Kill(16)
		main.Join(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if handlerThread != "sigowner" {
		t.Errorf("handler ran on %q, want sigowner", handlerThread)
	}
}
