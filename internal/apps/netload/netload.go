// Package netload is the scaling workload: an epoll-based network server
// (one event-loop thread multiplexing every connection through the batched
// readiness index, the way nginx or a modern httpd event MPM does) under an
// open-loop load of thousands of virtual connections whose arrival times
// are drawn from the paper-style traffic distributions in internal/stats.
// Arrivals are scheduled in VIRTUAL time, so a scenario that models hours
// of production traffic records (and strict-replays) in wall-clock seconds.
package netload

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/stats"
)

// SigTerm is the shutdown signal the load driver sends when done.
const SigTerm = modes.SigTerm

// Config parameterises the server.
type Config struct {
	Port    int
	Workers int
	// Batch caps how many readiness events one EpollWait delivers
	// (0 = 64). The visible-op cost of the event loop is one op per
	// BATCH, not per connection — the scalability contract under test.
	Batch int
	// StatsCells is the number of unsynchronised per-path hit counters
	// (the seeded races, as in httpd). 0 disables them.
	StatsCells int
	// Trace and Metrics are optional observability sinks.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
}

// DefaultConfig returns the standard scaling-server shape.
func DefaultConfig() Config {
	return Config{Port: 90, Workers: 4, Batch: 64, StatsCells: 8}
}

// Server returns the server main function: an epoll event loop accepting
// connections and handing them to a worker pool over a condvar-guarded
// queue, until SigTerm.
func Server(rt *core.Runtime, cfg Config) func(*core.Thread) {
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	return func(main *core.Thread) {
		quit := main.NewAtomic64("netload.quit", 0)
		qmu := rt.NewMutex("netload.queue.mu")
		qcv := rt.NewCond("netload.queue.cv", qmu)
		connQueue := core.NewVar(rt, "netload.queue", []int(nil))

		var cells []*core.Var[int]
		for i := 0; i < cfg.StatsCells; i++ {
			cells = append(cells, core.NewVar(rt, fmt.Sprintf("netload.stats.%d", i), 0))
		}

		main.Signal(SigTerm, func(h *core.Thread, sig int32) {
			quit.Store(h, 1, core.Release)
		})

		lfd := main.Socket()
		if e := main.Bind(lfd, cfg.Port); e != env.OK {
			panic("netload: bind: " + e.String())
		}
		if e := main.Listen(lfd, 1<<16); e != env.OK {
			panic("netload: listen: " + e.String())
		}
		epfd := main.EpollCreate()
		if e := main.EpollCtl(epfd, env.EpollAdd, lfd, env.PollIn); e != env.OK {
			panic("netload: epoll_ctl: " + e.String())
		}

		workers := make([]*core.Handle, cfg.Workers)
		for i := range workers {
			workers[i] = main.Spawn(fmt.Sprintf("nl-worker-%d", i),
				worker(quit, qmu, qcv, connQueue, cells))
		}

		// Event loop: one visible operation per readiness batch. New
		// connections come off the listener's backlog in bulk; everything
		// else is a connection with data, handed to the pool.
		for quit.Load(main, core.Acquire) == 0 {
			evs, errno := main.EpollWait(epfd, cfg.Batch, 100)
			if errno != env.OK {
				break
			}
			var handoff []int
			for _, ev := range evs {
				if ev.FD != lfd {
					handoff = append(handoff, ev.FD)
					continue
				}
				for {
					cfd, e := main.Accept(lfd)
					if e != env.OK {
						break
					}
					// Register the new connection; its request data (or
					// EOF) will surface through the same batched index.
					if e := main.EpollCtl(epfd, env.EpollAdd, cfd, env.PollIn); e != env.OK {
						main.Close(cfd)
					}
				}
			}
			if len(handoff) == 0 {
				continue
			}
			// The worker owns the connection from here: deregister so the
			// event loop never sees a popped fd again.
			for _, cfd := range handoff {
				main.EpollCtl(epfd, env.EpollDel, cfd, 0)
			}
			qmu.Lock(main)
			connQueue.Update(main, func(q []int) []int { return append(q, handoff...) })
			qcv.Broadcast(main)
			qmu.Unlock(main)
		}

		qmu.Lock(main)
		qcv.Broadcast(main)
		qmu.Unlock(main)
		for _, h := range workers {
			main.Join(h)
		}
		main.Close(epfd)
		main.Close(lfd)
	}
}

// worker pops ready connections and serves one request each.
func worker(quit *core.Atomic64, qmu *core.Mutex, qcv *core.Cond,
	connQueue *core.Var[[]int], cells []*core.Var[int]) func(*core.Thread) {
	return func(t *core.Thread) {
		for {
			qmu.Lock(t)
			var cfd = -1
			for {
				q := connQueue.Read(t)
				if len(q) > 0 {
					cfd = q[0]
					connQueue.Write(t, q[1:])
					break
				}
				if quit.Load(t, core.Acquire) != 0 {
					qmu.Unlock(t)
					return
				}
				qcv.Wait(t)
			}
			qmu.Unlock(t)
			serve(t, cfd, cells)
		}
	}
}

// serve answers one request on an already-readable connection. The event
// loop only hands over fds the readiness index reported, so the first recv
// normally has data; EAGAIN (request still in flight) falls back to a
// short poll, as in httpd.
func serve(t *core.Thread, cfd int, cells []*core.Var[int]) {
	defer t.Close(cfd)
	var req []byte
	for tries := 0; tries < 64; tries++ {
		chunk, errno := t.Recv(cfd, 256)
		if errno == env.EAGAIN {
			fds := []env.PollFD{{FD: cfd, Events: env.PollIn}}
			t.Poll(fds, 10)
			continue
		}
		if errno != env.OK || len(chunk) == 0 {
			break
		}
		req = append(req, chunk...)
		if strings.Contains(string(req), "\n") {
			break
		}
	}
	line := strings.TrimSpace(string(req))
	if !strings.HasPrefix(line, "GET ") {
		t.Send(cfd, []byte("400 bad request\n"))
		return
	}
	path := strings.TrimPrefix(line, "GET ")
	if len(cells) > 0 {
		// The seeded race: per-path hit counters updated without a lock.
		idx := pathHash(path) % uint64(len(cells))
		cells[idx].Update(t, func(v int) int { return v + 1 })
	}
	t.Send(cfd, []byte("200 ok "+path+"\n"))
}

func pathHash(path string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(path) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// LoadSpec shapes the open-loop arrival process.
type LoadSpec struct {
	// Conns is the total number of connections to drive.
	Conns int
	// MeanGap is the mean VIRTUAL inter-arrival time of the Poisson
	// arrival process (e.g. 1.2s per arrival * 10k conns ≈ 3.3 virtual
	// hours of traffic).
	MeanGap time.Duration
	// Paths and PathSkew shape the Zipf popularity distribution the
	// clients request (Paths 0 = 100, skew 0 = 1.0).
	Paths    int
	PathSkew float64
	// Timeout bounds each client's connect and response wait (wall
	// clock; external clients never run under the scheduler).
	Timeout time.Duration
}

// LoadResult summarises a scenario run.
type LoadResult struct {
	Requested int
	Completed int
	Errors    int
	// Wall is the generator's wall-clock duration; Virtual is how much
	// virtual time the modelled traffic spanned.
	Wall    time.Duration
	Virtual time.Duration
}

// RunLoad drives the arrival process against the server: connections are
// dispatched at Exponential(MeanGap) virtual intervals, each requesting a
// Zipf-ranked path on its own goroutine. Blocks until every client
// finishes.
//
//tsanrec:external open-loop load generator: external-world traffic whose timing is the recorded nondeterminism
func RunLoad(w *env.World, port int, spec LoadSpec) LoadResult {
	if spec.Paths <= 0 {
		spec.Paths = 100
	}
	if spec.PathSkew <= 0 {
		spec.PathSkew = 1.0
	}
	if spec.Timeout <= 0 {
		spec.Timeout = 20 * time.Second
	}
	gap := stats.Exponential{Mean: float64(spec.MeanGap)}
	zipf := stats.NewZipf(spec.Paths, spec.PathSkew)

	start := time.Now()
	vstart := w.VirtualNow()
	type out struct{ ok bool }
	results := make(chan out, spec.Conns)
	for i := 0; i < spec.Conns; i++ {
		if spec.MeanGap > 0 {
			if err := w.SleepVirtual(time.Duration(gap.Sample(w.ExternalRand()))); err != nil {
				// World stopped early: the remaining arrivals never happen.
				for j := i; j < spec.Conns; j++ {
					results <- out{}
				}
				break
			}
		}
		rank := zipf.Sample(w.ExternalRand())
		go func(rank int) {
			results <- out{ok: oneRequest(w, port, rank, spec.Timeout) == nil}
		}(rank)
	}
	var res LoadResult
	res.Requested = spec.Conns
	for i := 0; i < spec.Conns; i++ {
		if (<-results).ok {
			res.Completed++
		} else {
			res.Errors++
		}
	}
	res.Wall = time.Since(start)
	res.Virtual = time.Duration(w.VirtualNow() - vstart)
	return res
}

//tsanrec:external one external client: connect, request, read response
func oneRequest(w *env.World, port, rank int, timeout time.Duration) error {
	conn, err := w.ExternalConnect(port, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send([]byte("GET /item" + strconv.Itoa(rank) + "\n")); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	var resp []byte
	for {
		chunk, err := conn.Recv(512, time.Until(deadline))
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		resp = append(resp, chunk...)
		if strings.Contains(string(resp), "\n") {
			break
		}
	}
	if !strings.HasPrefix(string(resp), "200 ") {
		return fmt.Errorf("netload: bad response %q", resp)
	}
	return nil
}
