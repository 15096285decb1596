package conc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/demo"
)

func run(t *testing.T, strat demo.Strategy, seed uint64, body func(rt *core.Runtime) func(*core.Thread)) *core.Report {
	t.Helper()
	rt, err := core.New(core.Options{
		Strategy: strat, Seed1: seed, Seed2: seed ^ 0xc0c0,
		ReportRaces: true, MaxTicks: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(body(rt))
	if err != nil {
		t.Fatalf("strat %v seed %d: %v", strat, seed, err)
	}
	return rep
}

func bothStrategies(t *testing.T, body func(rt *core.Runtime) func(*core.Thread)) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		for seed := uint64(1); seed <= 5; seed++ {
			rep := run(t, strat, seed, body)
			if rep.RaceCount() != 0 {
				t.Fatalf("strat %v seed %d: races %v", strat, seed, rep.Races)
			}
		}
	}
}

func TestBarrierPhases(t *testing.T) {
	bothStrategies(t, func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			const parties, phases = 3, 4
			bar := NewBarrier(rt, "bar", parties)
			mu := rt.NewMutex("mu")
			phase := core.NewVar(rt, "phase", 0)
			var hs []*core.Handle
			for w := 0; w < parties; w++ {
				hs = append(hs, main.Spawn(fmt.Sprintf("b-%d", w), func(tw *core.Thread) {
					for p := 0; p < phases; p++ {
						mu.Lock(tw)
						if got := phase.Read(tw); got != p {
							panic(fmt.Sprintf("thread in phase %d saw counter %d", p, got))
						}
						mu.Unlock(tw)
						if bar.Wait(tw) {
							// Exactly one serial thread advances the phase.
							mu.Lock(tw)
							phase.Update(tw, func(v int) int { return v + 1 })
							mu.Unlock(tw)
						}
						bar.Wait(tw) // second barrier: phase counter settled
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
		}
	})
}

func TestQueueFIFOAndClose(t *testing.T) {
	bothStrategies(t, func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			q := NewQueue[int](rt, "q", 2)
			sumMu := rt.NewMutex("sum.mu")
			sum := core.NewVar(rt, "sum", 0)
			var hs []*core.Handle
			for c := 0; c < 2; c++ {
				hs = append(hs, main.Spawn(fmt.Sprintf("cons-%d", c), func(tc *core.Thread) {
					for {
						v, ok := q.Pop(tc)
						if !ok {
							return
						}
						sumMu.Lock(tc)
						sum.Update(tc, func(s int) int { return s + v })
						sumMu.Unlock(tc)
					}
				}))
			}
			total := 0
			for i := 1; i <= 10; i++ {
				q.Push(main, i)
				total += i
			}
			q.Close(main)
			for _, h := range hs {
				main.Join(h)
			}
			if sum.Read(main) != total {
				panic(fmt.Sprintf("queue lost items: %d != %d", sum.Read(main), total))
			}
			if q.Push(main, 99) {
				panic("push after close succeeded")
			}
		}
	})
}

func TestQueueSingleElementOrder(t *testing.T) {
	run(t, demo.StrategyQueue, 2, func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			q := NewQueue[int](rt, "q", 0)
			order := core.NewVar(rt, "order", []int(nil))
			h := main.Spawn("cons", func(tc *core.Thread) {
				for {
					v, ok := q.Pop(tc)
					if !ok {
						return
					}
					order.Update(tc, func(o []int) []int { return append(o, v) })
				}
			})
			for i := 0; i < 6; i++ {
				q.Push(main, i)
			}
			q.Close(main)
			main.Join(h)
			got := order.Read(main)
			for i, v := range got {
				if v != i {
					panic(fmt.Sprintf("FIFO violated: %v", got))
				}
			}
			if len(got) != 6 {
				panic("items lost")
			}
		}
	})
}

// TestQueueRingOrderAndReuse drives a queue's ring against a slice: items
// come out in push order across wraps and across growth while wrapped, and
// a queue whose length stays bounded keeps one buffer however many items
// pass through it.
func TestQueueRingOrderAndReuse(t *testing.T) {
	var r ring[int]
	var model []int
	next := 0
	for step := 0; step < 2000; step++ {
		// Push 0–4 and pop 0–3 per step, so the length drifts up and down
		// and the head wraps at every buffer size.
		for i := 0; i < step%5; i++ {
			r = r.push(next)
			model = append(model, next)
			next++
		}
		for i := 0; i < step%4 && r.n > 0; i++ {
			var v int
			v, r = r.pop()
			if v != model[0] {
				t.Fatalf("step %d: popped %d, want %d", step, v, model[0])
			}
			model = model[1:]
		}
		if r.n != len(model) {
			t.Fatalf("step %d: ring holds %d, want %d", step, r.n, len(model))
		}
	}
	for r.n > 0 {
		var v int
		v, r = r.pop()
		if v != model[0] {
			t.Fatalf("drain: popped %d, want %d", v, model[0])
		}
		model = model[1:]
	}

	buf := r.buf
	for i := 0; i < 10_000; i++ {
		r = r.push(i)
		r = r.push(i)
		_, r = r.pop()
		_, r = r.pop()
	}
	if &r.buf[0] != &buf[0] {
		t.Errorf("a queue holding at most 2 items reallocated its %d-slot buffer", len(buf))
	}
}

// TestQueueVisibleOperationCost pins what one Push, Pop and Close cost in
// scheduling points. An unbounded queue must cost exactly what the
// hand-written one-condvar queue costs (Lock/Signal/Unlock, Lock/Unlock,
// Lock/Broadcast/Unlock); a bounded one exactly one notFull Signal and one
// notFull Broadcast more.
func TestQueueVisibleOperationCost(t *testing.T) {
	ticks := func(body func(rt *core.Runtime) func(*core.Thread)) uint64 {
		return run(t, demo.StrategyQueue, 1, body).Ticks
	}
	handWritten := ticks(func(rt *core.Runtime) func(*core.Thread) {
		mu := rt.NewMutex("q.mu")
		cv := rt.NewCond("q.cv", mu)
		return func(main *core.Thread) {
			mu.Lock(main)
			cv.Signal(main)
			mu.Unlock(main)
			mu.Lock(main)
			mu.Unlock(main)
			mu.Lock(main)
			cv.Broadcast(main)
			mu.Unlock(main)
		}
	})
	script := func(capacity int) func(rt *core.Runtime) func(*core.Thread) {
		return func(rt *core.Runtime) func(*core.Thread) {
			q := NewQueue[int](rt, "q", capacity)
			return func(main *core.Thread) {
				q.Push(main, 7)
				if v, ok := q.Pop(main); !ok || v != 7 {
					panic(fmt.Sprintf("Pop = %d, %v", v, ok))
				}
				q.Close(main)
			}
		}
	}
	if got := ticks(script(0)); got != handWritten {
		t.Errorf("unbounded queue: %d ticks, hand-written queue %d", got, handWritten)
	}
	if got := ticks(script(4)); got != handWritten+2 {
		t.Errorf("bounded queue: %d ticks, want hand-written %d + 2", got, handWritten)
	}
}

// TestConcRecordReplay: programs built on the conc library replay exactly.
func TestConcRecordReplay(t *testing.T) {
	program := func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			q := NewQueue[int](rt, "q", 3)
			bar := NewBarrier(rt, "bar", 2)
			h := main.Spawn("peer", func(p *core.Thread) {
				bar.Wait(p)
				for {
					v, ok := q.Pop(p)
					if !ok {
						return
					}
					p.Printf("got %d\n", v)
				}
			})
			bar.Wait(main)
			for i := 0; i < 5; i++ {
				q.Push(main, i*i)
			}
			q.Close(main)
			main.Join(h)
		}
	}
	rt, err := core.New(core.Options{Strategy: demo.StrategyRandom, Seed1: 9, Seed2: 4, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rt.Run(program(rt))
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := core.New(core.Options{Strategy: demo.StrategyRandom, Replay: rec.Demo})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt2.Run(program(rt2))
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Output) != string(rec.Output) {
		t.Errorf("replay output %q != %q", rep.Output, rec.Output)
	}
}
