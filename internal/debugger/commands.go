package debugger

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Executor binds a Session to the textual command language shared by the
// tsandebug REPL and -script mode. Exec runs one command line and writes
// its output; command errors are reported to the writer (and returned) but
// do not end the session.
type Executor struct {
	S *Session
	W io.Writer
}

// Exec parses and runs one command line. quit reports that the session
// should end (`quit`/`exit`). Blank lines and #-comments are no-ops.
func (e *Executor) Exec(line string) (quit bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return false, nil
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit", "q":
		return true, nil
	case "help", "h", "?":
		e.help()
		return false, nil
	}
	if err := e.run(cmd, args); err != nil {
		fmt.Fprintf(e.W, "error: %v\n", err)
		return false, err
	}
	return false, nil
}

func (e *Executor) run(cmd string, args []string) error {
	s := e.S
	switch cmd {
	case "info":
		e.info()
	case "run-to-tick", "rt":
		t, err := argUint(args, 0)
		if err != nil {
			return fmt.Errorf("run-to-tick needs a tick: %w", err)
		}
		if err := s.RunToTick(t); err != nil {
			return err
		}
		e.where()
	case "step", "s":
		n := uint64(1)
		if len(args) > 0 {
			var err error
			if n, err = argUint(args, 0); err != nil || n == 0 {
				return fmt.Errorf("step takes a positive count")
			}
		}
		if err := s.Step(n); err != nil {
			return err
		}
		e.where()
	case "step-thread", "st":
		t, err := argUint(args, 0)
		if err != nil {
			return fmt.Errorf("step-thread needs a thread id: %w", err)
		}
		if err := s.StepThread(sched.TID(t)); err != nil {
			return err
		}
		e.where()
	case "reverse-step", "rs":
		n := uint64(1)
		if len(args) > 0 {
			var err error
			if n, err = argUint(args, 0); err != nil || n == 0 {
				return fmt.Errorf("reverse-step takes a positive count")
			}
		}
		if err := s.ReverseStep(n); err != nil {
			return err
		}
		e.where()
	case "reverse-continue", "rc":
		name := ""
		if len(args) > 0 {
			name = args[0]
		}
		site, resolved, err := s.ReverseContinue(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.W, "last write to %q: tick %d by t%d\n", resolved, site.Tick, site.TID)
		e.where()
	case "continue", "c":
		hit, err := s.Continue()
		if err != nil {
			return err
		}
		if hit {
			fmt.Fprintf(e.W, "breakpoint hit\n")
		}
		e.where()
	case "break", "b":
		bp, err := parseBreak(args)
		if err != nil {
			return err
		}
		i := s.AddBreak(bp)
		fmt.Fprintf(e.W, "breakpoint %d: %s\n", i, bp)
	case "breaks":
		if len(s.Breaks()) == 0 {
			fmt.Fprintf(e.W, "no breakpoints\n")
		}
		for i, bp := range s.Breaks() {
			fmt.Fprintf(e.W, "%d: %s\n", i, bp)
		}
	case "delete", "d":
		i, err := argUint(args, 0)
		if err != nil {
			return fmt.Errorf("delete needs a breakpoint index: %w", err)
		}
		return s.DeleteBreak(int(i))
	case "trace", "tr":
		if len(args) < 1 {
			return fmt.Errorf("trace needs a tick window T1..T2")
		}
		from, to, err := demo.ParseTickRange(args[0])
		if err != nil {
			return err
		}
		res, err := s.Trace(from, to)
		if err != nil {
			return err
		}
		e.trace(res)
	case "state":
		st, err := s.State()
		if err != nil {
			return err
		}
		e.state(st)
	case "checkpoints", "cps":
		for i, cp := range s.Checkpoints() {
			fmt.Fprintf(e.W, "%d: %s\n", i, cp)
		}
	case "verify":
		if len(args) > 0 && args[0] == "all" {
			for i := range s.Checkpoints() {
				if err := s.VerifyCheckpoint(i); err != nil {
					return err
				}
			}
			fmt.Fprintf(e.W, "all %d checkpoints converge bit-identically\n", len(s.Checkpoints()))
			return nil
		}
		i, err := argUint(args, 0)
		if err != nil {
			return fmt.Errorf("verify needs a checkpoint index or 'all': %w", err)
		}
		if err := s.VerifyCheckpoint(int(i)); err != nil {
			return err
		}
		fmt.Fprintf(e.W, "checkpoint %d converges bit-identically\n", i)
	case "writes":
		if len(args) < 1 {
			names := s.WriteIndex().Names()
			if len(names) == 0 {
				fmt.Fprintf(e.W, "no recorded writes\n")
				return nil
			}
			fmt.Fprintf(e.W, "written variables: %s\n", strings.Join(names, ", "))
			return nil
		}
		sites := s.WriteIndex().Writes(args[0])
		if len(sites) == 0 {
			return fmt.Errorf("no recorded writes to %q", args[0])
		}
		for _, w := range sites {
			fmt.Fprintf(e.W, "tick %-6d t%d\n", w.Tick, w.TID)
		}
	case "where", "w":
		e.where()
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// where prints the current position and pending operation.
func (e *Executor) where() {
	s := e.S
	if s.AtEnd() {
		fmt.Fprintf(e.W, "at end: tick %d (replay complete)\n", s.Pos())
		return
	}
	if s.Pending() == nil {
		fmt.Fprintf(e.W, "at tick %d; the replay stopped short of tick %d\n", s.Pos(), s.FinalTick())
		return
	}
	fmt.Fprintf(e.W, "at tick %d; next %s\n", s.Pos(), s.Pending())
}

func (e *Executor) info() {
	s := e.S
	rep := s.Report()
	fmt.Fprintf(e.W, "program   %s\n", s.prog.Name)
	fmt.Fprintf(e.W, "strategy  %v  seeds %#x %#x\n", s.d.Strategy, s.d.Seed1, s.d.Seed2)
	fmt.Fprintf(e.W, "ticks     %d  threads %d\n", s.FinalTick(), rep.Threads)
	fmt.Fprintf(e.W, "checkpoints %d (every %d ticks)\n", len(s.Checkpoints()), s.every)
	if rep.Err != nil {
		fmt.Fprintf(e.W, "replay terminated abnormally: %v\n", rep.Err)
	}
	if rep.SoftDesync {
		fmt.Fprintf(e.W, "soft desync: replay output diverged from recording\n")
	}
	if len(rep.Races) == 0 {
		fmt.Fprintf(e.W, "races     none\n")
	}
	for i, r := range rep.Races {
		fmt.Fprintf(e.W, "race %d    %s\n", i, r.String())
	}
	e.where()
}

func (e *Executor) state(st *StateDump) {
	if st.AtEnd {
		fmt.Fprintf(e.W, "position  tick %d (at end)\n", st.Pos)
	} else {
		fmt.Fprintf(e.W, "position  tick %d; next %s\n", st.Pos, st.Pending)
	}
	fmt.Fprintf(e.W, "demo cursors: syscalls consumed %d, signals left %d, asyncs left %d\n",
		st.Cursors.SyscallsConsumed, st.Cursors.SignalsLeft, st.Cursors.AsyncsLeft)
	fmt.Fprintf(e.W, "threads:\n")
	for _, t := range st.Threads {
		fmt.Fprintf(e.W, "  %s\n", t)
	}
	if len(st.Locks) == 0 {
		fmt.Fprintf(e.W, "held locks: none\n")
	} else {
		fmt.Fprintf(e.W, "held locks:\n")
		for _, l := range st.Locks {
			fmt.Fprintf(e.W, "  %s (id %#x) held by t%d\n", l.Name, l.ID, l.Owner)
		}
	}
	fmt.Fprintf(e.W, "vector clocks:\n")
	for tid, c := range st.Clocks {
		fmt.Fprintf(e.W, "  t%-3d %s\n", tid, c)
	}
}

func (e *Executor) trace(res *TraceResult) {
	fmt.Fprintf(e.W, "trace ticks %d..%d: %d events\n", res.From, res.To, len(res.Events))
	if res.Evicted {
		fmt.Fprintf(e.W, "  (window partially evicted from the capture ring)\n")
	}
	for _, ev := range res.Events {
		fmt.Fprintf(e.W, "  %s\n", ev)
	}
	if !res.Demo.Empty() {
		fmt.Fprintf(e.W, "demo streams in window:\n")
		for _, st := range res.Demo.Scheduled {
			fmt.Fprintf(e.W, "  QUEUE  tick %-6d schedule t%d\n", st.Tick, st.TID)
		}
		for _, sig := range res.Demo.Signals {
			fmt.Fprintf(e.W, "  SIGNAL tick %-6d sig %d -> t%d\n", sig.Tick, sig.Sig, sig.TID)
		}
		for _, a := range res.Demo.Asyncs {
			fmt.Fprintf(e.W, "  ASYNC  tick %-6d kind %d t%d\n", a.Tick, a.Kind, a.TID)
		}
	}
}

func (e *Executor) help() {
	fmt.Fprint(e.W, `commands:
  info                      demo header, races, checkpoint summary
  run-to-tick T   (rt)      position the replay at tick T (backwards restarts)
  step [n]        (s)       advance n visible operations (default 1)
  step-thread TID (st)      advance to the next operation by thread TID
  reverse-step [n] (rs)     move n visible operations backwards (default 1)
  reverse-continue [var] (rc)
                            jump to the last write of var before the current
                            tick; default: the raced variable of race 0
  continue        (c)       run until a breakpoint matches (or the end)
  break [var=V] [kind=K] [tid=N] (b)
                            add a breakpoint; omitted fields match anything
  breaks                    list breakpoints
  delete N        (d)       remove breakpoint N
  trace T1..T2    (tr)      dump the obs events of ticks T1..T2
  state                     threads, held locks, vector clocks, demo cursors
  checkpoints     (cps)     list checkpoints
  verify N|all              restart from checkpoint(s), verify convergence
  writes [var]              list write sites (or written variable names)
  where           (w)       print the current position
  quit                      end the session
`)
}

func argUint(args []string, i int) (uint64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing argument")
	}
	v, err := strconv.ParseUint(args[i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", args[i])
	}
	return v, nil
}

// parseBreak parses breakpoint fields: var=NAME, kind=KIND, tid=N, in any
// order. A bare word is shorthand for var=WORD.
func parseBreak(args []string) (core.Breakpoint, error) {
	bp := core.Breakpoint{TID: sched.NoTID}
	if len(args) == 0 {
		return bp, fmt.Errorf("break needs at least one of var=, kind=, tid=")
	}
	for _, a := range args {
		key, val, found := strings.Cut(a, "=")
		if !found {
			bp.Var = a
			continue
		}
		switch key {
		case "var":
			bp.Var = val
		case "kind":
			k, err := kindFromName(val)
			if err != nil {
				return bp, err
			}
			bp.Kind = k
		case "tid":
			n, err := strconv.ParseInt(val, 10, 32)
			if err != nil {
				return bp, fmt.Errorf("bad tid %q", val)
			}
			bp.TID = sched.TID(n)
		default:
			return bp, fmt.Errorf("unknown breakpoint field %q", key)
		}
	}
	return bp, nil
}

// kindFromName resolves an event-kind name ("mutex_lock", ...) for
// breakpoint predicates.
func kindFromName(name string) (obs.Kind, error) {
	var known []string
	for k := obs.Kind(1); k < obs.NumKinds; k++ {
		if k.String() == name {
			return k, nil
		}
		known = append(known, k.String())
	}
	sort.Strings(known)
	return obs.KindNone, fmt.Errorf("unknown kind %q (known: %s)", name, strings.Join(known, ", "))
}
