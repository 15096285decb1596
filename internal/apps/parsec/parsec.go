// Package parsec provides synthetic kernels with the concurrency skeletons
// of the PARSEC benchmarks the paper evaluates (§5.3, Tables 3-4):
//
//	blackscholes  — embarrassingly data-parallel fork/join: work is split
//	                once, threads compute with almost no visible
//	                operations ("high parallelism/low communication ...
//	                plays to the strengths of tsan11rec").
//	fluidanimate  — fine-grained locking over a grid: a visible operation
//	                per cell update, the worst case for controlled
//	                scheduling overhead.
//	streamcluster — barrier-phased iteration: all threads meet at a
//	                conc.Barrier between compute phases.
//	bodytrack     — a producer/worker-pool pipeline of many small items
//	                through a conc.Queue (starves under uniform random
//	                scheduling, hence its 94x rnd column).
//	ferret        — a multi-stage pipeline with moderate compute per
//	                stage and a conc.Queue between stages.
//
// The barrier and the unbounded queues are internal/conc's, the
// instrumented counterparts of the pthread barrier and condvar queues the
// real benchmarks synchronise through.
//
// The kernels compute real (deterministic) arithmetic so that "invisible"
// regions have genuine weight; sizes are calibrated so a full 'simlarge'
// style run takes fractions of a second natively on the reproduction host.
package parsec

import (
	"fmt"
	"math"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
)

// Benchmark is one PARSEC-model kernel.
type Benchmark struct {
	Name string
	// Body builds the kernel's main function for nthreads and a size
	// scale (1 = the default experiment size).
	Body func(rt *core.Runtime, nthreads, size int) func(*core.Thread)
}

// Benchmarks lists the kernels in Table 3 order (pbzip lives in its own
// package).
var Benchmarks = []Benchmark{
	{"blackscholes", blackscholes},
	{"fluidanimate", fluidanimate},
	{"streamcluster", streamcluster},
	{"bodytrack", bodytrack},
	{"ferret", ferret},
}

// ByName returns the named kernel.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// RunOnce executes a kernel under opts and returns its wall time.
func RunOnce(b Benchmark, opts core.Options, nthreads, size int) (time.Duration, *core.Report, error) {
	if opts.MaxTicks == 0 {
		opts.MaxTicks = 20_000_000
	}
	if opts.WallTimeout == 0 {
		opts.WallTimeout = 60 * time.Second
	}
	rt, err := core.New(opts)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now() //tsanrec:allow(rawsync) host-side wall-clock measurement around Run, not program logic
	rep, err := rt.Run(b.Body(rt, nthreads, size))
	return time.Since(start), rep, err //tsanrec:allow(rawsync) host-side wall-clock measurement around Run, not program logic
}

// blackscholes: price options in parallel; one visible op per thread at
// start and end only.
func blackscholes(rt *core.Runtime, nthreads, size int) func(*core.Thread) {
	n := 20000 * size
	return func(main *core.Thread) {
		// One result cell per worker: distinct memory locations, written
		// without synchronisation beyond fork/join — exactly the
		// benchmark's sharing pattern.
		results := make([]*core.Var[float64], nthreads)
		for i := range results {
			results[i] = core.NewVar(rt, fmt.Sprintf("bs.result.%d", i), 0.0)
		}
		var hs []*core.Handle
		for w := 0; w < nthreads; w++ {
			w := w
			hs = append(hs, main.Spawn(fmt.Sprintf("bs-%d", w), func(t *core.Thread) {
				lo, hi := w*n/nthreads, (w+1)*n/nthreads
				sum := 0.0
				for i := lo; i < hi; i++ {
					sum += blackScholesPrice(float64(i%100)+1, 100, 0.05, 0.2, 1.0)
				}
				results[w].Write(t, sum)
			}))
		}
		total := 0.0
		for i, h := range hs {
			main.Join(h)
			total += results[i].Read(main)
		}
		if total <= 0 {
			panic("blackscholes: implausible total")
		}
	}
}

// blackScholesPrice is the classic closed-form call price.
func blackScholesPrice(s, k, r, sigma, t float64) float64 {
	d1 := (math.Log(s/k) + (r+sigma*sigma/2)*t) / (sigma * math.Sqrt(t))
	d2 := d1 - sigma*math.Sqrt(t)
	return s*cnd(d1) - k*math.Exp(-r*t)*cnd(d2)
}

func cnd(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// fluidanimate: particles in a mutex-per-cell grid; every interaction
// takes two locks (ordered to avoid deadlock).
func fluidanimate(rt *core.Runtime, nthreads, size int) func(*core.Thread) {
	const cells = 16
	iters := 400 * size
	return func(main *core.Thread) {
		grid := make([]*core.Mutex, cells)
		mass := make([]*core.Var[float64], cells)
		for i := range grid {
			grid[i] = rt.NewMutex(fmt.Sprintf("fluid.cell.%d", i))
			mass[i] = core.NewVar(rt, fmt.Sprintf("fluid.mass.%d", i), 1.0)
		}
		var hs []*core.Handle
		for w := 0; w < nthreads; w++ {
			w := w
			hs = append(hs, main.Spawn(fmt.Sprintf("fluid-%d", w), func(t *core.Thread) {
				for i := 0; i < iters; i++ {
					a := (w*31 + i*7) % cells
					b := (a + 1 + i%3) % cells
					lo, hi := a, b
					if lo > hi {
						lo, hi = hi, lo
					}
					grid[lo].Lock(t)
					if hi != lo {
						grid[hi].Lock(t)
					}
					ma := mass[lo].Read(t)
					mb := mass[hi].Read(t)
					flow := (ma - mb) * 0.1
					mass[lo].Write(t, ma-flow)
					mass[hi].Write(t, mb+flow)
					if hi != lo {
						grid[hi].Unlock(t)
					}
					grid[lo].Unlock(t)
				}
			}))
		}
		for _, h := range hs {
			main.Join(h)
		}
	}
}

// streamcluster: phases of parallel distance computation separated by
// barriers.
func streamcluster(rt *core.Runtime, nthreads, size int) func(*core.Thread) {
	phases := 40 * size
	points := 6000
	return func(main *core.Thread) {
		bar := conc.NewBarrier(rt, "sc.barrier", nthreads)
		cost := core.NewVar(rt, "sc.cost", 0.0)
		costMu := rt.NewMutex("sc.cost.mu")
		var hs []*core.Handle
		for w := 0; w < nthreads; w++ {
			w := w
			hs = append(hs, main.Spawn(fmt.Sprintf("sc-%d", w), func(t *core.Thread) {
				for p := 0; p < phases; p++ {
					local := 0.0
					lo, hi := w*points/nthreads, (w+1)*points/nthreads
					for i := lo; i < hi; i++ {
						dx := float64((i*7+p)%97) / 97
						dy := float64((i*13+p)%89) / 89
						local += math.Sqrt(dx*dx + dy*dy)
					}
					costMu.Lock(t)
					cost.Update(t, func(c float64) float64 { return c + local })
					costMu.Unlock(t)
					bar.Wait(t)
				}
			}))
		}
		for _, h := range hs {
			main.Join(h)
		}
	}
}

// bodytrack: one producer feeding many small work items to a worker pool.
func bodytrack(rt *core.Runtime, nthreads, size int) func(*core.Thread) {
	items := 400 * size
	return func(main *core.Thread) {
		q := conc.NewQueue[int](rt, "bt.queue", 0)
		done := core.NewVar(rt, "bt.done", 0)
		doneMu := rt.NewMutex("bt.done.mu")
		var hs []*core.Handle
		workers := nthreads - 1
		if workers < 1 {
			workers = 1
		}
		for w := 0; w < workers; w++ {
			hs = append(hs, main.Spawn(fmt.Sprintf("bt-%d", w), func(t *core.Thread) {
				for {
					v, ok := q.Pop(t)
					if !ok {
						return
					}
					acc := 0.0
					for i := 0; i < 800; i++ {
						acc += math.Sin(float64(v+i)) * math.Cos(float64(v-i))
					}
					doneMu.Lock(t)
					done.Update(t, func(d int) int { return d + 1 })
					doneMu.Unlock(t)
				}
			}))
		}
		for i := 0; i < items; i++ {
			q.Push(main, i)
		}
		q.Close(main)
		for _, h := range hs {
			main.Join(h)
		}
	}
}

// ferret: a four-stage pipeline (segment → extract → index → rank) with
// moderate compute per stage.
func ferret(rt *core.Runtime, nthreads, size int) func(*core.Thread) {
	items := 150 * size
	return func(main *core.Thread) {
		stages := []*conc.Queue[int]{
			conc.NewQueue[int](rt, "ferret.s1", 0),
			conc.NewQueue[int](rt, "ferret.s2", 0),
			conc.NewQueue[int](rt, "ferret.s3", 0),
		}
		ranked := core.NewVar(rt, "ferret.ranked", 0)
		rankMu := rt.NewMutex("ferret.rank.mu")

		stageBody := func(in, out *conc.Queue[int], weight int) func(*core.Thread) {
			return func(t *core.Thread) {
				for {
					v, ok := in.Pop(t)
					if !ok {
						if out != nil {
							out.Close(t)
						}
						return
					}
					acc := float64(v)
					for i := 0; i < weight*200; i++ {
						acc = math.Sqrt(acc + float64(i))
					}
					if out != nil {
						out.Push(t, v+int(acc)%3)
					} else {
						rankMu.Lock(t)
						ranked.Update(t, func(r int) int { return r + 1 })
						rankMu.Unlock(t)
					}
				}
			}
		}
		h1 := main.Spawn("ferret-extract", stageBody(stages[0], stages[1], 2))
		h2 := main.Spawn("ferret-index", stageBody(stages[1], stages[2], 3))
		h3 := main.Spawn("ferret-rank", stageBody(stages[2], nil, 1))
		for i := 0; i < items; i++ {
			stages[0].Push(main, i)
		}
		stages[0].Close(main)
		main.Join(h1)
		main.Join(h2)
		main.Join(h3)
	}
}
