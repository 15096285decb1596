package repro

// Benchmark harness for per-operation costs and design ablations: the §5.4
// bug and §5.5 layout experiments as benchmarks, the §4.2 strategy storage
// trade-off, ablations for the design decisions DESIGN.md calls out, and
// the scheduler, recorder and observability hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's tables are cmd/experiments' job: it writes every cell to a
// JSON artifact and renders EXPERIMENTS.md's tables from it.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/apps/game"
	"repro/internal/apps/litmus"
	"repro/internal/apps/parsec"
	"repro/internal/apps/ptrapp"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/obs"
)

// BenchmarkSection54Bug regenerates the §5.4 experiment end to end:
// record networked play until the stale-state bug fires, then replay it.
// The metric reports how often the replayed bug reproduced (must be 1).
func BenchmarkSection54Bug(b *testing.B) {
	cfg := game.DefaultConfig()
	cfg.Network = true
	cfg.PlayNanos = int64(250 * time.Millisecond)
	srv := game.DefaultServerConfig()
	srv.Buggy = true
	srv.MapChangeEvery = 8
	srv.ExtraClients = 1
	reproduced := 0
	total := 0
	for i := 0; i < b.N; i++ {
		var rec game.Outcome
		for seed := uint64(1); seed < 10; seed++ {
			rec = game.PlayOpts(cfg, srv, core.Options{
				Strategy: demo.StrategyQueue, Seed1: seed + uint64(i)*97, Seed2: seed * 3,
				Record: true, Policy: core.PolicySparse,
			})
			if rec.Err != nil {
				b.Fatal(rec.Err)
			}
			if game.BugManifested(rec.Report.Output) {
				break
			}
		}
		if !game.BugManifested(rec.Report.Output) {
			continue
		}
		total++
		rep := game.Replay(cfg, rec.Report.Demo, core.PolicySparse)
		if rep.Err == nil && game.BugManifested(rep.Report.Output) {
			reproduced++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(reproduced)/float64(total), "bug-reproduced")
	}
}

// BenchmarkSection55Layout regenerates the §5.5 limitation: replay desync
// rate with the randomised allocator versus the deterministic one.
func BenchmarkSection55Layout(b *testing.B) {
	for _, det := range []struct {
		name string
		on   bool
	}{{"randomised-layout", false}, {"deterministic-alloc", true}} {
		b.Run(det.name, func(b *testing.B) {
			desynced := 0
			for i := 0; i < b.N; i++ {
				rec := ptrapp.Record(ptrapp.DefaultConfig(), uint64(i)+1, det.on)
				if rec.Err != nil {
					b.Fatal(rec.Err)
				}
				rep := ptrapp.Replay(ptrapp.DefaultConfig(), rec.Report.Demo, det.on)
				if rep.Err != nil || (rep.Report != nil && rep.Report.SoftDesync) {
					desynced++
				}
			}
			b.ReportMetric(float64(desynced)/float64(b.N), "desync/run")
		})
	}
}

// BenchmarkDemoCost quantifies the §4.2 trade-off: the random strategy
// stores nothing per visible operation (two seeds total) while the queue
// strategy stores schedule data on every visible operation.
func BenchmarkDemoCost(b *testing.B) {
	program := func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			x := main.NewAtomic64("x", 0)
			var hs []*core.Handle
			for w := 0; w < 4; w++ {
				hs = append(hs, main.Spawn("w", func(t *core.Thread) {
					for i := 0; i < 200; i++ {
						x.Add(t, 1, core.SeqCst)
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
		}
	}
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		b.Run(strat.String(), func(b *testing.B) {
			var bytes, ticks int
			for i := 0; i < b.N; i++ {
				rt, err := core.New(core.Options{
					Strategy: strat, Seed1: uint64(i) + 1, Seed2: 2, Record: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := rt.Run(program(rt))
				if err != nil {
					b.Fatal(err)
				}
				bytes += rep.Demo.Size()
				ticks += int(rep.Ticks)
			}
			b.ReportMetric(float64(bytes)/float64(ticks), "demo-bytes/op")
		})
	}
}

// BenchmarkAblationSequentialise isolates the cost DESIGN.md's first
// starred decision avoids: serialising invisible regions (the rr execution
// model) versus serialising only visible operations.
func BenchmarkAblationSequentialise(b *testing.B) {
	kernel, _ := parsec.ByName("blackscholes")
	for _, seq := range []struct {
		name string
		on   bool
	}{{"visible-ops-only", false}, {"sequentialise-all", true}} {
		b.Run(seq.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{
					Strategy: demo.StrategyQueue,
					Seed1:    uint64(i) + 1, Seed2: 2,
					Sequentialize: seq.on,
				}
				if _, rep, err := parsec.RunOnce(kernel, opts, 4, 1); err != nil {
					b.Fatal(err)
				} else if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// BenchmarkAblationHistoryDepth varies the atomic store-history bound: a
// depth of 1 disables stale reads entirely (plain-tsan value semantics)
// and measures what the weak-memory machinery costs.
func BenchmarkAblationHistoryDepth(b *testing.B) {
	p, _ := litmus.ByName("ms-queue")
	for _, depth := range []int{1, 4, 8, 32} {
		b.Run(depthName(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := litmus.RunOnce(p, core.Options{
					Strategy: demo.StrategyRandom,
					Seed1:    uint64(i) + 1, Seed2: 7,
					ReportRaces:  true,
					HistoryDepth: depth,
				})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

func depthName(d int) string {
	switch d {
	case 1:
		return "depth-1"
	case 4:
		return "depth-4"
	case 8:
		return "depth-8"
	default:
		return "depth-32"
	}
}

// BenchmarkSchedulerOverhead measures the raw cost of one critical section
// (Wait + Tick + race-detector update), the per-visible-op price of the
// whole approach.
func BenchmarkSchedulerOverhead(b *testing.B) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue, demo.StrategyPCT} {
		b.Run(strat.String(), func(b *testing.B) {
			rt, err := core.New(core.Options{
				Strategy: strat, Seed1: 1, Seed2: 2,
				MaxTicks: uint64(b.N) + 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Run(func(main *core.Thread) {
				x := main.NewAtomic64("x", 0)
				for i := 0; i < b.N; i++ {
					x.Store(main, uint64(i), core.Relaxed)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkVisibleOpThreads measures how the cost of one visible operation
// scales with the number of live-but-blocked threads. n-1 threads park on a
// mutex the main thread holds, so every main-thread Tick happens while n-1
// goroutines sit in Wait: with a global-broadcast wakeup each Tick pays
// O(n) futile wakeups (and the queue strategy's decision scan pays O(n)
// again); with directed parking and the split runnable queue the per-op
// cost must stay flat from 2 threads to 10240 (the scaling acceptance bar:
// the 10240-thread point within 2x of the 128-thread one). The op is a
// bare Yield so the number is the scheduling protocol itself, not the
// race-detector work a data operation adds on top. SpawnDelay is disabled
// at the large counts — 10k modelled pthread_creates would dominate setup.
func BenchmarkVisibleOpThreads(b *testing.B) {
	for _, n := range []int{2, 4, 8, 32, 128, 1024, 10240} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			rt, err := core.New(core.Options{
				Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2,
				MaxTicks:   uint64(b.N) + uint64(n)*16 + 4096,
				SpawnDelay: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Run(func(main *core.Thread) {
				gate := rt.NewMutex("gate")
				gate.Lock(main)
				hs := make([]*core.Handle, 0, n-1)
				for i := 0; i < n-1; i++ {
					hs = append(hs, main.Spawn("parked", func(t *core.Thread) {
						gate.Lock(t)
						gate.Unlock(t)
					}))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					main.Yield()
				}
				b.StopTimer()
				gate.Unlock(main)
				for _, h := range hs {
					main.Join(h)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkNeedleRun measures one whole controlled run of the needle
// litmus program, core.New to report: random under seeds (1, 2), recorded
// in memory, with the reschedule watchdog off — the trial racehunt's
// sweeps repeat, a few hundred visible operations. With -benchmem its
// allocs/op is the fixed cost a run pays to set up and tear down, which
// internal/core's TestNeedleRunAllocs bounds.
func BenchmarkNeedleRun(b *testing.B) {
	p, _ := litmus.ByName("needle")
	opts := core.RecordOptions(demo.StrategyRandom, 1, 2)
	opts.RescheduleQuantum = -1
	for i := 0; i < b.N; i++ {
		rt, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Run(p.Body(rt)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordStreaming measures what the crash-safe streaming writer
// adds to the record path. The hotpath sub-benchmark drives NoteSchedule
// directly against a disk-backed recorder while the background flusher
// runs at a production cadence: the steady state must stay zero-alloc,
// because every allocation here is paid inside the scheduler's critical
// section on every visible operation. The workload sub-benchmarks run the
// same litmus program with recording off, in-memory, and streamed — the
// end-to-end price of durability is the stream/memory delta.
func BenchmarkRecordStreaming(b *testing.B) {
	b.Run("hotpath", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.demo2")
		r, err := demo.NewStreamingRecorder(path, demo.StrategyQueue, 1, 2,
			demo.StreamOptions{FlushInterval: 2 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the spool windows past steady-state size so growth
		// allocations land before the measurement starts.
		const warm = 1 << 16
		for i := 0; i < warm; i++ {
			r.NoteSchedule(int32(i%4), uint64(i+1))
		}
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.NoteSchedule(int32(i%4), uint64(warm+i+1))
		}
		b.StopTimer()
		if err := r.Close(uint64(warm + b.N)); err != nil {
			b.Fatal(err)
		}
	})

	p, _ := litmus.ByName("ms-queue")
	workload := func(b *testing.B, opts func(i int) core.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if res := litmus.RunOnce(p, opts(i)); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.Run("workload/no-record", func(b *testing.B) {
		workload(b, func(i int) core.Options {
			return core.Options{Strategy: demo.StrategyQueue, Seed1: uint64(i) + 1, Seed2: 2}
		})
	})
	b.Run("workload/record-memory", func(b *testing.B) {
		workload(b, func(i int) core.Options {
			return core.Options{Strategy: demo.StrategyQueue, Seed1: uint64(i) + 1, Seed2: 2, Record: true}
		})
	})
	b.Run("workload/record-stream", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.demo2")
		workload(b, func(i int) core.Options {
			return core.Options{
				Strategy: demo.StrategyQueue, Seed1: uint64(i) + 1, Seed2: 2,
				Record: true, RecordPath: path,
			}
		})
	})
}

// BenchmarkRecordQueueInMemory records 100k ticks of three round-robin
// threads without a file, then decodes the recording with Finish. With
// -benchmem its B/op is what an in-memory recording costs: the recorder
// holds a bounded QUEUE window plus the batches it cut from it, encoded,
// and the decode allocates the demo's 800 KB of ticks once. internal/demo's
// TestInMemoryRecordingAllocatesWindowNotTicks bounds it.
func BenchmarkRecordQueueInMemory(b *testing.B) {
	const ticks = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := demo.NewRecorder(demo.StrategyQueue, 1, 2)
		for tick := uint64(1); tick <= ticks; tick++ {
			r.NoteSchedule(int32((tick-1)%3), tick)
		}
		if d := r.Finish(ticks); len(d.Queue.Ticks) != ticks {
			b.Fatalf("Finish decoded %d ticks, want %d", len(d.Queue.Ticks), ticks)
		}
	}
}

// BenchmarkDecodeStream decodes a streamed recording shaped like netload's
// (5,242 ticks over five threads and 1,201 SYSCALL records, half of them
// with a 12-byte buffer) that was written in 64 flush batches. With
// -benchmem its allocs/op is the decoder's fixed cost: each array is
// sized once, however many batches the stream holds.
func BenchmarkDecodeStream(b *testing.B) {
	const ticks = 5242
	path := filepath.Join(b.TempDir(), "bench.demo2")
	r, err := demo.NewStreamingRecorder(path, demo.StrategyQueue, 1, 2, demo.StreamOptions{FlushInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	for tick := uint64(1); tick <= ticks; tick++ {
		tid := int32(tick * 7 % 5)
		r.NoteSchedule(tid, tick)
		if sys := tick / 4; tick%4 == 0 && sys <= 1201 {
			rec := demo.SyscallRecord{TID: tid, Kind: 7, Ret: int64(sys)}
			if sys%2 == 1 {
				rec = demo.SyscallRecord{TID: tid, Kind: 3, Ret: 12, Bufs: [][]byte{[]byte("GET /item42\n")}}
			}
			r.AddSyscall(rec)
		}
		if tick%(ticks/64+1) == 0 {
			if err := r.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := r.Close(ticks); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := demo.DecodeStream(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVirtualWake measures one virtual-time wake at the default
// 100µs check interval, which the advancer counts from the world's last
// change. On a quiet world (quiet) a SleepVirtual's own timer is that
// change, so its ns/op is the interval plus what the advancer's last nap
// overshoots it by. In changed the world changes three times, 20µs
// apart, while the timer is pending, as a netload arrival's handling
// changes it; after-change-ns/op is the time from the last change to the
// wake, which each of netload's arrivals pays.
func BenchmarkVirtualWake(b *testing.B) {
	b.Run("quiet", func(b *testing.B) {
		w := env.NewWorld(1)
		defer w.Shutdown()
		w.EnableVirtualTime(0)
		for i := 0; i < b.N; i++ {
			if err := w.SleepVirtual(time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("changed", func(b *testing.B) {
		w := env.NewWorld(1)
		defer w.Shutdown()
		w.EnableVirtualTime(0)
		rfd, wfd := w.Pipe()
		one := []byte{1}
		ready, woke := make(chan struct{}), make(chan time.Time)
		var after time.Duration
		for i := 0; i < b.N; i++ {
			go func() {
				ready <- struct{}{}
				if err := w.SleepVirtual(time.Second); err != nil {
					b.Error(err)
				}
				woke <- time.Now()
			}()
			<-ready
			var last time.Time
			for j := 0; j < 3; j++ {
				for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
				}
				w.Write(wfd, one)
				w.Read(rfd, 1)
				last = time.Now()
			}
			after += (<-woke).Sub(last)
		}
		b.ReportMetric(float64(after.Nanoseconds())/float64(b.N), "after-change-ns/op")
	})
}

// obsBenchOps is how many visible operations each observability benchmark
// run performs (yields across two threads, plus the protocol's own ops).
const obsBenchOps = 4000

func runObsYields(b *testing.B, tr *obs.Tracer, mx *obs.Metrics) uint64 {
	b.Helper()
	rt, err := core.New(core.Options{
		Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2,
		MaxTicks: 10_000_000,
		Trace:    tr, Metrics: mx,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := rt.Run(func(main *core.Thread) {
		h := main.Spawn("peer", func(t *core.Thread) {
			for i := 0; i < obsBenchOps/2; i++ {
				t.Yield()
			}
		})
		for i := 0; i < obsBenchOps/2; i++ {
			main.Yield()
		}
		main.Join(h)
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep.Ticks
}

func benchObsVisibleOps(b *testing.B, tr *obs.Tracer, mx *obs.Metrics) {
	var ticks uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticks = runObsYields(b, tr, mx)
	}
	b.StopTimer()
	if ticks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ticks), "ns/visible-op")
	}
}

// BenchmarkObsDisabled measures the per-visible-op cost of the
// observability hot path when it is compiled in but off. The delta of
// "tracer-disabled" over "no-obs" is the price every production run pays
// for the layer's existence — one nil check at runtime construction and
// one atomic load per op, a few ns, within the scheduling protocol's own
// noise.
func BenchmarkObsDisabled(b *testing.B) {
	b.Run("no-obs", func(b *testing.B) {
		benchObsVisibleOps(b, nil, nil)
	})
	b.Run("tracer-disabled", func(b *testing.B) {
		tr := obs.NewTracer(obs.DefaultTracerSize)
		tr.Disable()
		benchObsVisibleOps(b, tr, nil)
	})
}

// BenchmarkObsEnabled is the comparison point with the ring and metrics
// hot: every visible op emits a trace event and bumps a kind counter.
func BenchmarkObsEnabled(b *testing.B) {
	tr := obs.NewTracer(obs.DefaultTracerSize)
	mx := obs.NewMetrics()
	benchObsVisibleOps(b, tr, mx)
}
