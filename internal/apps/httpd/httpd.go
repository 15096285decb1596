// Package httpd is the evaluation's web-server workload (§5.2): a
// single-process multiple-thread server in the style of Apache httpd's
// worker MPM, plus an ab-style concurrent load generator that runs in the
// external world. The server uses the paper's poll workaround (§5.2: httpd
// was switched from epoll_wait to poll because tsan11rec cannot model
// epoll's union-typed results), a mutex+condvar work queue, and the same
// kind of unsynchronised statistics counters that make real httpd so racy
// under tsan11.
package httpd

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/obs"
)

// SigTerm is the shutdown signal the load driver sends when done.
const SigTerm = modes.SigTerm

// Config parameterises the server.
type Config struct {
	Port    int
	Workers int
	// StatsCells is the number of unsynchronised per-path statistics
	// counters (the seeded races). 0 disables them.
	StatsCells int
	// Trace and Metrics are optional observability sinks threaded into the
	// runtime (nil disables them; see internal/obs).
	Trace   *obs.Tracer
	Metrics *obs.Metrics
}

// DefaultConfig mirrors the paper's single-process-multiple-thread setup.
func DefaultConfig() Config {
	return Config{Port: 80, Workers: 4, StatsCells: 8}
}

// Server returns the server main function for rt. The server accepts
// connections until it receives SigTerm, handing each connection to a
// worker pool over a condvar-guarded queue.
func Server(rt *core.Runtime, cfg Config) func(*core.Thread) {
	return func(main *core.Thread) {
		quit := main.NewAtomic64("httpd.quit", 0)
		qmu := rt.NewMutex("httpd.queue.mu")
		qcv := rt.NewCond("httpd.queue.cv", qmu)
		connQueue := core.NewVar(rt, "httpd.queue", []int(nil))

		var stats []*core.Var[int]
		for i := 0; i < cfg.StatsCells; i++ {
			stats = append(stats, core.NewVar(rt, fmt.Sprintf("httpd.stats.%d", i), 0))
		}

		main.Signal(SigTerm, func(h *core.Thread, sig int32) {
			quit.Store(h, 1, core.Release)
		})

		lfd := main.Socket()
		if e := main.Bind(lfd, cfg.Port); e != env.OK {
			panic("httpd: bind: " + e.String())
		}
		if e := main.Listen(lfd, 64); e != env.OK {
			panic("httpd: listen: " + e.String())
		}

		workers := make([]*core.Handle, cfg.Workers)
		for i := range workers {
			workers[i] = main.Spawn(fmt.Sprintf("worker-%d", i),
				worker(rt, quit, qmu, qcv, connQueue, stats))
		}

		// Listener loop: poll for connections, accept, enqueue.
		for quit.Load(main, core.Acquire) == 0 {
			fds := []env.PollFD{{FD: lfd, Events: env.PollIn}}
			n, _ := main.Poll(fds, 100)
			if n == 0 {
				continue
			}
			for {
				cfd, errno := main.Accept(lfd)
				if errno == env.EAGAIN {
					break
				}
				if errno != env.OK {
					break
				}
				qmu.Lock(main)
				connQueue.Update(main, func(q []int) []int { return append(q, cfd) })
				qcv.Signal(main)
				qmu.Unlock(main)
			}
		}

		// Shut down: wake everyone and join.
		qmu.Lock(main)
		qcv.Broadcast(main)
		qmu.Unlock(main)
		for _, h := range workers {
			main.Join(h)
		}
		main.Close(lfd)
	}
}

// worker builds a worker-thread body: pop a connection, serve one request,
// close.
func worker(rt *core.Runtime, quit *core.Atomic64, qmu *core.Mutex, qcv *core.Cond,
	connQueue *core.Var[[]int], stats []*core.Var[int]) func(*core.Thread) {
	return func(t *core.Thread) {
		for {
			qmu.Lock(t)
			var cfd int = -1
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
			serve(t, cfd, stats)
		}
	}
}

// serve handles one connection: read the request line, compute the body,
// respond, close. The stats update is deliberately unsynchronised.
func serve(t *core.Thread, cfd int, stats []*core.Var[int]) {
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

	// Invisible work: render the response body.
	body := render(path)

	// The seeded race: per-path hit counters updated without a lock, as
	// in real httpd's scoreboard.
	if len(stats) > 0 {
		idx := pathHash(path) % uint64(len(stats))
		stats[idx].Update(t, func(v int) int { return v + 1 })
	}

	resp := fmt.Sprintf("200 %d\n%s", len(body), body)
	t.Send(cfd, []byte(resp))
}

// render produces a deterministic response body with a little CPU work,
// standing in for httpd's request handling.
func render(path string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < 32; i++ {
		for _, b := range []byte(path) {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("<html>%s:%x</html>", path, h)
}

func pathHash(path string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(path) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// LoadResult summarises an ab run.
type LoadResult struct {
	Requested int
	Completed int
	Errors    int
	Duration  time.Duration
}

// Throughput returns completed queries per second.
func (r LoadResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

// RunLoad drives the server with total requests across concurrency
// external client goroutines (the ab equivalent: "We sent 10,000 queries
// across 10 concurrent threads"). It runs in the external world and must
// be started before (or concurrently with) the runtime's Run.
//
// Clients start like ab's simultaneous threads: every client opens its
// connection, and only once all connections are up does anyone send a
// request. The barrier between the connect wave and the first sends
// guarantees the server observes `concurrency` in-flight requests at
// startup no matter how fast it absorbs connections.
//
// After the wave each client pipelines one request ahead: it dials and
// sends request i+1 before it reads the response to request i, the way a
// keep-alive HTTP client streams a request backlog. The pipelining is what
// keeps the load OPEN-LOOP: a strictly request-response client gates every
// arrival on the previous response, so a server that answers in
// microseconds is always idle — every worker has finished its handler and
// parked on the queue condvar — by the time the next connection lands, and
// the "concurrent load" degenerates to a serial request stream in which no
// two handlers ever overlap. With one request always in flight per client,
// arrivals outpace the handlers and connections queue up, so workers pop
// back-to-back while earlier handlers are still mid-request — the
// overlapping-handler regime real httpd runs in, and the one where its
// unsynchronised scoreboard updates are genuinely concurrent.
//
//tsanrec:external the ab-model load generator is external-world traffic; only its syscall arrivals are recorded
func RunLoad(w *env.World, port, total, concurrency int, timeout time.Duration) LoadResult {
	if concurrency < 1 {
		concurrency = 1
	}
	start := time.Now()
	type out struct{ done, errs int }
	results := make(chan out, concurrency)
	per := total / concurrency
	extra := total % concurrency
	var wave sync.WaitGroup
	wave.Add(concurrency)
	for c := 0; c < concurrency; c++ {
		n := per
		if c < extra {
			n++
		}
		go func(id, n int) {
			var o out
			// next holds the connection whose request is sent but whose
			// response has not been read yet (the pipelined request).
			var next *env.ExtConn
			var nerr error
			if n > 0 {
				next, nerr = w.ExternalConnect(port, timeout)
			}
			wave.Done()
			wave.Wait()
			if next != nil {
				if e := next.Send(request(id, 0)); e != nil {
					next.Close()
					next, nerr = nil, e
				}
			}
			for i := 0; i < n; i++ {
				conn, err := next, nerr
				if i+1 < n {
					// Dial and send the next request before reading this
					// response: one request stays in flight per client.
					next, nerr = sendRequest(w, port, id, i+1, timeout)
				}
				if err == nil {
					err = awaitResponse(conn, timeout)
				}
				if conn != nil {
					conn.Close()
				}
				if err != nil {
					o.errs++
				} else {
					o.done++
				}
			}
			results <- o
		}(c, n)
	}
	var res LoadResult
	res.Requested = total
	for c := 0; c < concurrency; c++ {
		o := <-results
		res.Completed += o.done
		res.Errors += o.errs
	}
	res.Duration = time.Since(start)
	return res
}

func request(id, i int) []byte {
	return []byte("GET /client" + strconv.Itoa(id) + "/item" + strconv.Itoa(i) + "\n")
}

func sendRequest(w *env.World, port, id, i int, timeout time.Duration) (*env.ExtConn, error) {
	conn, err := w.ExternalConnect(port, timeout)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(request(id, i)); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

//tsanrec:external the external client's blocking read of one response
func awaitResponse(conn *env.ExtConn, timeout time.Duration) error {
	var resp []byte
	deadline := time.Now().Add(timeout)
	for {
		chunk, err := conn.Recv(512, time.Until(deadline))
		if err != nil {
			return err
		}
		if chunk == nil {
			break // EOF
		}
		resp = append(resp, chunk...)
		if strings.HasPrefix(string(resp), "200 ") && strings.Contains(string(resp), "</html>") {
			break
		}
		if strings.HasPrefix(string(resp), "400") {
			break
		}
	}
	if !strings.HasPrefix(string(resp), "200 ") {
		return fmt.Errorf("httpd: bad response %q", resp)
	}
	return nil
}
