package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/game"
	"repro/internal/apps/httpd"
	"repro/internal/apps/litmus"
	"repro/internal/apps/parsec"
	"repro/internal/apps/pbzip"
	"repro/internal/core"
)

// sizes are the workload sizes, fixed before any run and recorded in the
// artifact: the paper's where a run of them fits in minutes, else the
// smallest round size whose native cell takes over ~10 ms on a 2-vCPU host
// (native fluidanimate reads ~14 ms at parsec.scale 50, under 1 ms at 1).
var sizes = map[string]int{
	"httpd.requests": 10000, // the paper's 10,000 queries from 10 clients
	"httpd.clients":  10,
	"parsec.threads": 4, // the paper's
	"parsec.scale":   50,
	"pbzip.kib":      512,
	"game.play_ms":   2000, // the paper plays 90 s
}

var (
	toolModes = []string{"native", "rr", "tsan11", "tsan11+rr", "rnd", "queue", "rnd+rec", "queue+rec"}
	gameModes = []string{"native", "tsan11", "rnd", "queue", "rnd+rec", "queue+rec"}
	recModes  = []string{"rnd+rec", "queue+rec"}
	queueRec  = []string{"queue+rec"}
	// demoRequests are §5.2's request counts, the paper's.
	demoRequests = []string{"1000", "10000"}
)

// entry is one registry entry: a workload measured row by row under each
// mode, and the blocks EXPERIMENTS.md shows of its cells.
type entry struct {
	name   string
	runs   int // runs per cell unless -runs overrides
	run    func(m *meter) error
	blocks []block
}

var registry = []entry{
	{"table1", 1000, runLitmus, []block{
		{"table1", "Test", false, litmusNames(), []string{"tsan11", "tsan11+rr", "rnd", "queue"},
			[]col{{"%s µs", "time_us", "med"}, {"races", "race_pct", "rate"}}},
		{"strategies", "Test", false, litmusNames(), []string{"rnd", "pct", "delay", "queue"},
			[]col{{"%s races", "race_pct", "rate"}, {"first", "first_race", "median"}}},
	}},
	{"table2", 5, runHTTPD, []block{{"table2", "Setup", true, toolModes, []string{"reports", "no-reports"},
		[]col{{"%s q/s", "qps", "med"}, {"overhead", "qps", "tput"}, {"races/run", "races", "med"}}}}},
	{"demosize", 3, runDemoSize, []block{{"demosize", "Requests", false, demoRequests, recModes,
		[]col{{"%s B/request", "bytes_per_req", "med"}, {"syscall %", "syscall_pct", "median"}}}}},
	{"table3", 5, runParsec, []block{
		{"table3", "Program", false, parsecNames(), toolModes, []col{{"%s", "time_ms", "med"}}},
		{"table4", "Program", false, parsecNames(), toolModes, []col{{"%s", "time_ms", "over"}}},
	}},
	{"table5", 5, runGame, []block{{"table5", "Setup", true, gameModes, []string{"quakespasm"},
		[]col{{"fps", "fps", "med"}, {"overhead", "fps", "tput"}}}}},
	{"policy", 3, runPolicy, []block{{"policy", "Policy", false, []string{"sparse", "full", "rr"}, []string{"queue+rec", "rr"},
		[]col{{"%s demo bytes", "demo_bytes", "med"}, {"live frames in replay", "live_frames", "med"},
			{"replays in sync", "synced_pct", "rate"}, {"%s runs refused", "refused_pct", "rate"}}}}},
	{"bug", 5, runBug, []block{{"bug", "Program", false, []string{"zandronum"}, queueRec,
		[]col{{"recordings with the bug", "manifested_pct", "rate"}, {"demo bytes", "demo_bytes", "med"},
			{"syscall %", "syscall_pct", "median"}, {"replays with the bug", "reproduced_pct", "rate"},
			{"live frames in replay", "live_frames", "med"}}}}},
}

func litmusNames() (names []string) {
	for _, p := range litmus.Programs {
		names = append(names, p.Name)
	}
	return names
}

// parsecNames are the rows of Tables 3 and 4: pbzip, then the kernels.
func parsecNames() []string {
	names := []string{"pbzip"}
	for _, b := range parsec.Benchmarks {
		names = append(names, b.Name)
	}
	return names
}

// runLitmus measures Table 1 and the strategy comparison: per CDSchecker
// program and mode, a run's wall time, whether it reported a race, and
// which run first did.
func runLitmus(m *meter) error {
	modes := []string{"tsan11", "tsan11+rr", "rnd", "pct", "delay", "queue"}
	return m.each(litmusNames(), modes, func(row, mode string, r int) error {
		p, _ := litmus.ByName(row)
		res := litmus.RunOnce(p, m.opts(mode, r, true))
		if res.Err != nil {
			return res.Err
		}
		m.add(row, mode, "time_us", float64(res.Duration)/float64(time.Microsecond))
		m.add(row, mode, "race_pct", pct(res.Races > 0))
		if _, seen := m.obs[[3]string{row, mode, "first_race"}]; res.Races > 0 && !seen {
			m.add(row, mode, "first_race", float64(r+1))
		}
		return nil
	})
}

// served fails a server run that errored or left queries unanswered: a
// partial run's throughput does not belong in a cell.
func served(out httpd.Outcome, queries int) error {
	if out.Err == nil && out.Load.Completed < queries {
		return fmt.Errorf("only %d/%d queries completed", out.Load.Completed, queries)
	}
	return out.Err
}

// runHTTPD measures Table 2: httpd throughput and races per run under each
// mode, with race reports on and off.
func runHTTPD(m *meter) error {
	cfg, n := httpd.DefaultConfig(), sizes["httpd.requests"]
	cfg.Trace, cfg.Metrics = m.sess.Tracer, m.sess.Metrics
	return m.each([]string{"reports", "no-reports"}, toolModes, func(row, mode string, r int) error {
		out := httpd.RunExperiment(cfg, mode, m.seed(r), row == "reports", n, sizes["httpd.clients"])
		if err := served(out, n); err != nil {
			return err
		}
		m.add(row, mode, "qps", out.Load.Throughput())
		if row == "reports" {
			m.add(row, mode, "races", float64(out.Races()))
		}
		return nil
	})
}

// runDemoSize measures §5.2's demo bytes per query of a recorded httpd
// run, and the share of them the SYSCALL section holds.
func runDemoSize(m *meter) error {
	cfg := httpd.DefaultConfig()
	cfg.Trace, cfg.Metrics = m.sess.Tracer, m.sess.Metrics
	return m.each(demoRequests, recModes, func(row, mode string, r int) error {
		n, _ := strconv.Atoi(row)
		out := httpd.RunExperiment(cfg, mode, m.seed(r), false, n, sizes["httpd.clients"])
		if err := served(out, n); err != nil {
			return err
		}
		d := out.Report.Demo
		m.add(row, mode, "bytes_per_req", float64(d.Size())/float64(n))
		m.add(row, mode, "syscall_pct", 100*float64(d.SectionSizes()["syscall"])/float64(d.Size()))
		return nil
	})
}

// runParsec measures Tables 3 and 4: the wall time of pbzip and of the
// five PARSEC-model kernels under each mode.
func runParsec(m *meter) error {
	threads := sizes["parsec.threads"]
	return m.each(parsecNames(), toolModes, func(row, mode string, r int) (err error) {
		var d time.Duration
		if b, ok := parsec.ByName(row); ok {
			d, _, err = parsec.RunOnce(b, m.opts(mode, r, false), threads, sizes["parsec.scale"])
		} else {
			cfg := pbzip.DefaultConfig()
			cfg.Workers = threads
			d, _, _, err = pbzip.RunOnce(m.opts(mode, r, false), cfg, sizes["pbzip.kib"]<<10)
		}
		if err == nil {
			m.add(row, mode, "time_ms", float64(d)/float64(time.Millisecond))
		}
		return err
	})
}

func gameConfig(m *meter) game.Config {
	cfg := game.DefaultConfig()
	cfg.PlayNanos = int64(sizes["game.play_ms"]) * int64(time.Millisecond)
	cfg.Trace, cfg.Metrics = m.sess.Tracer, m.sess.Metrics
	return cfg
}

// runGame measures Table 5: the game model's uncapped frame rate, one
// observation per 100 virtual ms of play.
func runGame(m *meter) error {
	cfg, srv := gameConfig(m), game.DefaultServerConfig()
	return m.each([]string{"quakespasm"}, gameModes, func(row, mode string, r int) error {
		out := game.Play(cfg, srv, mode, m.seed(r))
		if out.Err != nil {
			return out.Err
		}
		for _, f := range out.FPS {
			m.add(row, mode, "fps", f)
		}
		return nil
	})
}

// runPolicy measures the §5.4 ioctl study: the game recorded under the
// sparse and the full policy and replayed under the same one, and the rr
// model, which has its own policy and refuses the display's ioctls.
func runPolicy(m *meter) error {
	cfg, srv := gameConfig(m), game.DefaultServerConfig()
	return m.each([]string{"sparse", "full", "rr"}, []string{"queue+rec", "rr"}, func(row, mode string, r int) error {
		if (row == "rr") != (mode == "rr") { // rr has no policy to vary; the policies run under queue+rec
			return nil
		}
		opts := m.opts(mode, r, false)
		if mode == "rr" {
			out := game.PlayOpts(cfg, srv, opts)
			if out.Err != nil && !strings.Contains(out.Err.Error(), "ENOTSUP") {
				return out.Err
			}
			m.add(row, mode, "refused_pct", pct(out.Err != nil))
			return nil
		}
		opts.Policy = map[string]core.Policy{"sparse": core.PolicySparse, "full": core.PolicyFull}[row]
		out := game.PlayOpts(cfg, srv, opts)
		if out.Err != nil {
			return out.Err
		}
		rep := game.Replay(cfg, out.Report.Demo, opts.Policy)
		m.add(row, mode, "demo_bytes", float64(out.Report.Demo.Size()))
		m.add(row, mode, "live_frames", float64(rep.Frames))
		m.add(row, mode, "synced_pct", pct(rep.Err == nil && !rep.Report.SoftDesync))
		return nil
	})
}

// runBug measures the §5.4 networked bug (Zandronum #2380 model): how
// often a recording of play against the buggy server shows the bug, and
// whether the offline replay of each such recording shows it again.
func runBug(m *meter) error {
	cfg, srv := gameConfig(m), game.DefaultServerConfig()
	cfg.Network = true
	srv.Buggy, srv.MapChangeEvery, srv.ExtraClients = true, 10, 1
	return m.each([]string{"zandronum"}, queueRec, func(row, mode string, r int) error {
		out := game.PlayOpts(cfg, srv, m.opts(mode, r, false)) // the sparse policy, core's default
		if out.Err != nil {
			return out.Err
		}
		hit := game.BugManifested(out.Report.Output)
		if m.add(row, mode, "manifested_pct", pct(hit)); !hit {
			return nil
		}
		d := out.Report.Demo
		rep := game.Replay(cfg, d, core.PolicySparse)
		m.add(row, mode, "demo_bytes", float64(d.Size()))
		m.add(row, mode, "syscall_pct", 100*float64(d.SectionSizes()["syscall"])/float64(d.Size()))
		m.add(row, mode, "reproduced_pct", pct(rep.Err == nil && game.BugManifested(rep.Report.Output)))
		m.add(row, mode, "live_frames", float64(rep.Frames))
		return nil
	})
}
