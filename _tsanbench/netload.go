package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/apps/netload"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/prng"
	"repro/internal/stats"
)

// netloadMeanGap is the mean virtual inter-arrival gap of cmd/netload.
const netloadMeanGap = 1200 * time.Millisecond

// arrival is one connection of the open-loop schedule: the virtual gap
// before it is dialled and the Zipf rank of the path it requests.
type arrival struct {
	gap  time.Duration
	rank int
}

// netloadWorkload drives the epoll server with an open-loop arrival
// process in virtual time. netload.RunLoad draws its gaps and paths from
// the world's time-seeded entropy, so the benchmark draws the same
// distributions (stats.Exponential gaps, stats.Zipf paths) from --seed
// instead and dials the connections itself; the inputs are then a pure
// function of the seed.
type netloadWorkload struct {
	c        *config
	cfg      netload.Config
	arrivals []arrival
	dir      string
}

func newNetload(c *config) workload {
	cfg := netload.DefaultConfig()
	cfg.Workers = c.procs
	return &netloadWorkload{c: c, cfg: cfg}
}

func (w *netloadWorkload) shape() shape {
	return shape{threads: w.cfg.Workers + 1, strategy: demo.StrategyQueue, streamed: true}
}

func makeArrivals(seed uint64, n int) []arrival {
	rng := prng.New(prng.Derive(seed, 0x6e65746c6f6164))
	gap := stats.Exponential{Mean: float64(netloadMeanGap)}
	zipf := stats.NewZipf(100, 1.0)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{gap: time.Duration(gap.Sample(rng.Uint64())), rank: zipf.Sample(rng.Uint64())}
	}
	return out
}

func (w *netloadWorkload) setup() error {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	dir, err := os.MkdirTemp(w.c.dir, "netload-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.arrivals = makeArrivals(w.c.seed, w.c.size.conns)
	// Warm-up: one recorded scenario at a tenth of the load, replayed.
	warm := w.arrivals[:max(1, len(w.arrivals)/10)]
	path := filepath.Join(w.dir, "warmup.demo2")
	rec := w.scenario("queue+rec", w.c.seed, warm, path, nil)
	if rec.err != nil {
		return rec.err
	}
	if rep := netload.Replay(w.cfg, rec.rep.Demo, true); rep.Err != nil {
		return rep.Err
	}
	return os.Remove(path)
}

func (w *netloadWorkload) close() { os.RemoveAll(w.dir) }

// scenarioOut is one live scenario: the load generator's tally and the
// server's report.
type scenarioOut struct {
	completed, errors int
	rep               *core.Report
	err               error
	wall, cpu         time.Duration
}

// scenario runs the server under mode against the arrival schedule, then
// delivers SigTerm and waits for the drain, as netload.RunScenario does.
func (w *netloadWorkload) scenario(mode string, seed uint64, arr []arrival, recordPath string, tr *tracing) scenarioOut {
	var out scenarioOut
	opts, err := modes.Options(mode, seed, true)
	if err != nil {
		return scenarioOut{err: err}
	}
	cfg := w.cfg
	if tr != nil && !opts.Uncontrolled {
		cfg.Trace, cfg.Metrics = tr.runObs()
		opts.Trace, opts.Metrics = cfg.Trace, cfg.Metrics
	}
	opts.RecordPath = recordPath
	opts.WallTimeout = 120 * time.Second
	opts.MaxTicks = 500_000_000

	cpu0 := cpuTime()
	t0 := time.Now()
	sp := tr.begin("netload."+mode, "core", -1)
	c := tr.begin("env.NewWorld", "env", sp)
	world := env.NewWorld(seed)
	world.EnableVirtualTime(0)
	opts.World = world
	tr.end(c)
	c = tr.begin("core.New", "core", sp)
	rt, err := core.New(opts)
	tr.end(c)
	if err != nil {
		world.Shutdown()
		return scenarioOut{err: err}
	}
	type runOut struct {
		rep *core.Report
		err error
	}
	done := make(chan runOut, 1)
	run := tr.begin("core.Run", "core", sp)
	go func() {
		rep, err := rt.Run(netload.Server(rt, cfg))
		done <- runOut{rep, err}
	}()
	load := tr.begin("load", "env", sp)
	out.completed, out.errors = drive(world, cfg.Port, arr)
	world.Kill(netload.SigTerm)
	tr.end(load)
	select {
	case r := <-done:
		out.rep, out.err = r.rep, r.err
	case <-time.After(150 * time.Second):
		out.err = fmt.Errorf("netload %s: server did not drain after SigTerm", mode)
	}
	tr.end(run)
	tr.end(sp)
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0
	tr.noteConns(len(arr))
	if out.err == nil && out.rep != nil && !opts.Uncontrolled {
		tr.checkRun("netload."+mode, out.rep, true)
	}
	return out
}

// drive dials the schedule's connections at their virtual arrival times,
// each on its own goroutine, and waits for every one to finish.
func drive(w *env.World, port int, arr []arrival) (completed, errors int) {
	results := make(chan bool, len(arr))
	dialled := 0
	for _, a := range arr {
		if err := w.SleepVirtual(a.gap); err != nil {
			break // the world stopped: the remaining arrivals never happen
		}
		go func(rank int) { results <- request(w, port, rank) == nil }(a.rank)
		dialled++
	}
	errors = len(arr) - dialled
	for i := 0; i < dialled; i++ {
		if <-results {
			completed++
		} else {
			errors++
		}
	}
	return completed, errors
}

// request is one external client: connect, send a GET, read the reply.
func request(w *env.World, port, rank int) error {
	const timeout = 60 * time.Second
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
	for !strings.Contains(string(resp), "\n") {
		chunk, err := conn.Recv(512, time.Until(deadline))
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		resp = append(resp, chunk...)
	}
	if !strings.HasPrefix(string(resp), "200 ") {
		return fmt.Errorf("bad response %q", resp)
	}
	return nil
}

// raceSet is the set of locations a run reported races on. Which pair of
// accesses the detector reports for a location (and their epochs) can
// differ between a recording and its replay, because invisible accesses
// run outside the controlled schedule; the racy locations must not.
func raceSet(rep *core.Report) string {
	seen := make(map[string]bool)
	var rs []string
	for _, r := range rep.Races {
		if !seen[r.Location] {
			seen[r.Location] = true
			rs = append(rs, r.Location)
		}
	}
	sort.Strings(rs)
	return strings.Join(rs, ",")
}

func (w *netloadWorkload) unit(k int, tr *tracing) unitOut {
	var u unitOut
	seed, _ := prng.Derive(w.c.seed, uint64(k)+1)
	n := len(w.arrivals)
	live := func(mode, path string) scenarioOut {
		s := w.scenario(mode, seed, w.arrivals, path, tr)
		switch {
		case s.err != nil:
			u.fail("%s: %v", mode, s.err)
		case s.rep != nil && s.rep.Err != nil:
			u.fail("%s: %v", mode, s.rep.Err)
		case s.completed != n || s.errors != 0:
			u.fail("%s: %d of %d connections completed, %d errors", mode, s.completed, n, s.errors)
		}
		return s
	}

	u.native = live("native", "").wall
	u.plain = live("queue", "").wall
	path := filepath.Join(w.dir, fmt.Sprintf("unit%d.demo2", k))
	rec := live("queue+rec", path)
	u.record, u.recordCPU, u.work = rec.wall, rec.cpu, float64(rec.completed)
	if rec.err != nil || rec.rep == nil || rec.rep.Demo == nil {
		u.fail("queue+rec: no recording")
		return u
	}
	defer os.Remove(path)
	u.demoBytes = float64(rec.rep.Demo.Size())
	tr.noteRecording(rec.rep.Demo, true, rec.wall)
	if tr != nil {
		// Every live run (native, queue, queue+rec) polls as often as the
		// recording shows.
		tr.cnt.epollWaits += 3 * countSyscalls(rec.rep.Demo, env.SysEpollWait)
		tr.trial(rec.wall)
	}

	// Offline replay: read the streamed file back, then strict-replay it.
	// One replay takes a few milliseconds, so the unit replays the file
	// netloadReplays times and replay_s is their total.
	tr.noteRaces(len(rec.rep.Races))
	for i := 0; i < netloadReplays; i++ {
		if !w.replay(path, rec.rep, i == 0, tr, &u) {
			break
		}
	}
	return u
}

// netloadReplays is how many times a unit replays its recording.
const netloadReplays = 5

// replay reads the recording at path back and strict-replays it, adding
// the time to u.replay; validate also checks the file. It reports whether
// the replay passed its checks.
func (w *netloadWorkload) replay(path string, rec *core.Report, validate bool, tr *tracing, u *unitOut) bool {
	cfg := w.cfg
	if tr != nil {
		cfg.Trace, cfg.Metrics = tr.runObs()
	}
	t0 := time.Now()
	sp := tr.begin("demo.ReadFile", "demo", -1)
	d, err := demo.ReadFile(path)
	tr.end(sp)
	if err != nil {
		u.fail("read back %s: %v", path, err)
		return false
	}
	if validate && tr != nil {
		sp := tr.begin("demo.Validate", "demo", -1)
		err := d.Validate()
		tr.end(sp)
		if err != nil {
			u.fail("validate %s: %v", path, err)
		}
	}
	d = w.c.corrupt(d)
	sp = tr.begin("netload.Replay", "core", -1)
	rp := netload.Replay(cfg, d, true)
	tr.end(sp)
	u.replay += time.Since(t0)
	switch {
	case rp.Err != nil:
		u.fail("replay: %v", rp.Err)
	case rp.Report.SoftDesync:
		u.fail("replay: soft desync")
	case raceSet(rp.Report) != raceSet(rec):
		u.fail("replay raced on [%s], the recording on [%s]", raceSet(rp.Report), raceSet(rec))
	default:
		tr.checkRun("netload.replay", rp.Report, false)
		tr.noteReplay(d, rp.Report)
		return true
	}
	return false
}

func countSyscalls(d *demo.Demo, kind env.Sys) int {
	n := 0
	for _, sc := range d.Syscalls {
		if env.Sys(sc.Kind) == kind {
			n++
		}
	}
	return n
}
