package core

import (
	"testing"
	"time"

	"repro/internal/demo"
)

// napPrinters has two threads print from invisible regions. While
// recording, a naps before it prints, so b's line reaches the host first;
// under replay Nap returns at once, so the host order flips whenever a's
// region starts first. Output must follow the schedule, not the host.
func napPrinters(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		x := main.NewAtomic64("o.x", 0)
		a := main.Spawn("a", func(t *Thread) {
			for i := 0; i < 4; i++ {
				x.Add(t, 1, SeqCst)
				t.Nap(time.Millisecond)
				t.Printf("a%d\n", i)
			}
		})
		b := main.Spawn("b", func(t *Thread) {
			for i := 0; i < 4; i++ {
				x.Add(t, 1, SeqCst)
				t.Printf("b%d\n", i)
			}
		})
		main.Join(a)
		main.Join(b)
		main.Printf("x=%d\n", x.Load(main, SeqCst))
	}
}

// TestOutputFollowsSchedule: a replay whose host timing differs from the
// recording's reproduces its output byte for byte and its hash, both for
// a complete demo and for a prefix recovered from a streamed recording.
func TestOutputFollowsSchedule(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		for _, strat := range []demo.Strategy{demo.StrategyQueue, demo.StrategyRandom} {
			rt := newTestRuntime(t, Options{Strategy: strat, Seed1: seed, Seed2: seed + 7, Record: true})
			rec, err := rt.Run(napPrinters(rt))
			if err != nil {
				t.Fatalf("%v seed %d: record: %v", strat, seed, err)
			}
			rrt := newTestRuntime(t, ReplayOptions(rec.Demo))
			rep, err := rrt.Run(napPrinters(rrt))
			if err != nil {
				t.Fatalf("%v seed %d: replay: %v", strat, seed, err)
			}
			if rep.SoftDesync || string(rep.Output) != string(rec.Output) {
				t.Errorf("%v seed %d: replay output %q (soft desync %v), recorded %q",
					strat, seed, rep.Output, rep.SoftDesync, rec.Output)
			}
			if got := demo.HashOutput(rec.Output); got != rec.Demo.OutputHash {
				t.Errorf("%v seed %d: demo hash %#x, HashOutput(Report.Output) %#x",
					strat, seed, rec.Demo.OutputHash, got)
			}
		}
	}
}

// TestHeldOutputFlushedInThreadOrder: output a thread printed after its
// last granted critical section — here, stragglers aborted at their next
// operation once main has returned — joins the run after everything
// committed by ticks, in thread-id order rather than the order printed.
func TestHeldOutputFlushedInThreadOrder(t *testing.T) {
	prog := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			for i := 0; i < 3; i++ {
				id := i
				main.Spawn("s", func(t *Thread) {
					// Nap caps each call at 20ms; s2 prints first, s0 last,
					// all well after main has returned.
					for n := 0; n < 3-id; n++ {
						t.Nap(20 * time.Millisecond)
					}
					t.Printf("s%d\n", id)
					t.Yield() // never granted
				})
			}
			main.Printf("main\n")
		}
	}
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, Record: true})
	rep, err := rt.Run(prog(rt))
	if err != nil {
		t.Fatal(err)
	}
	if want := "main\ns0\ns1\ns2\n"; string(rep.Output) != want {
		t.Fatalf("output %q, want %q", rep.Output, want)
	}
	if got := demo.HashOutput(rep.Output); got != rep.Demo.OutputHash {
		t.Fatalf("demo hash %#x does not cover the flushed output (%#x)", rep.Demo.OutputHash, got)
	}
}

// TestTruncatedReplayDropsHeldOutput: a replay that stops at a truncated
// demo's last tick drops what threads printed after their last granted
// critical section, since the recording had not committed that output by
// the cut either.
func TestTruncatedReplayDropsHeldOutput(t *testing.T) {
	var aTID TID
	prog := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			x := main.NewAtomic64("d.x", 0)
			a := main.Spawn("a", func(t *Thread) {
				x.Add(t, 1, SeqCst)
				t.Printf("a\n")
				t.Nap(20 * time.Millisecond) // b's adds run meanwhile
				x.Add(t, 1, SeqCst)
			})
			aTID = a.TID()
			b := main.Spawn("b", func(t *Thread) {
				for i := 0; i < 20; i++ {
					x.Add(t, 1, SeqCst)
				}
			})
			main.Join(a)
			main.Join(b)
		}
	}
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, Record: true})
	rec, err := rt.Run(prog(rt))
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Output) != "a\n" {
		t.Fatalf("recorded output %q", rec.Output)
	}
	var aTicks []uint64
	for _, st := range rec.Demo.Window(1, rec.Demo.FinalTick).Scheduled {
		if TID(st.TID) == aTID {
			aTicks = append(aTicks, st.Tick)
		}
	}
	if len(aTicks) < 2 || aTicks[1] <= aTicks[0]+1 {
		t.Fatalf("a's ticks %v leave no cut between its two adds", aTicks)
	}
	cut := rec.Demo.TruncateTo(aTicks[0] + 1)
	cut.Truncated = true
	cut.OutputHash = 0 // "a" is committed at a's second add, past the cut

	rrt := newTestRuntime(t, ReplayOptions(cut))
	rep, err := rrt.Run(prog(rrt))
	if err != nil {
		t.Fatalf("replay of the prefix: %v", err)
	}
	if rep.Ticks != cut.FinalTick {
		t.Fatalf("replay ran %d ticks, prefix ends at %d", rep.Ticks, cut.FinalTick)
	}
	if len(rep.Output) != 0 || rep.SoftDesync {
		t.Fatalf("prefix replay output %q (soft desync %v), want none", rep.Output, rep.SoftDesync)
	}
}
