package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/env"
)

// Record/replay coverage for every syscall wrapper the paper lists (§4.4):
// the program exercises read, write, recv, recvmsg, send, sendmsg, accept,
// accept4, clock_gettime, ioctl, select, bind and poll; the external world
// supplies a client; replay re-runs with no external world at all.

func syscallProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		// Files: structural + (unrecorded) data.
		fd, errno := main.Open("/etc/motd")
		if errno != env.OK {
			panic("open: " + errno.String())
		}
		data, _ := main.Read(fd, 64)
		main.Printf("motd=%q\n", data)
		main.Close(fd)

		out, _ := main.Create("/tmp/out")
		main.Write(out, []byte("result"))
		main.Close(out)

		// Network: listener accepting one client via accept4 and select.
		lfd := main.Socket()
		if e := main.Bind(lfd, 9100); e != env.OK {
			panic("bind")
		}
		if e := main.Listen(lfd, 4); e != env.OK {
			panic("listen")
		}
		var cfd int = -1
		for i := 0; i < 10000 && cfd < 0; i++ {
			ready, _ := main.Select([]int{lfd})
			if len(ready) == 0 {
				fds := []env.PollFD{{FD: lfd, Events: env.PollIn}}
				main.Poll(fds, 10)
				continue
			}
			nfd, errno := main.Accept4(lfd, 0)
			if errno == env.OK {
				cfd = nfd
			}
		}
		if cfd < 0 {
			panic("no client arrived")
		}
		var req []byte
		for len(req) < 5 {
			chunk, errno := main.Recvmsg(cfd, 16)
			if errno == env.EAGAIN {
				main.Yield()
				continue
			}
			if errno != env.OK {
				panic("recvmsg: " + errno.String())
			}
			req = append(req, chunk...)
		}
		main.Printf("req=%q\n", req)
		main.Sendmsg(cfd, []byte("pong!"))
		main.Send(cfd, []byte("done"))

		// Clock + device ioctl.
		t0 := main.ClockGettime()
		gpu, _ := main.Open(env.DisplayPath)
		handle, _, errno := main.Ioctl(gpu, env.IoctlGLInit, nil)
		if errno != env.OK {
			panic("ioctl init")
		}
		fb := make([]byte, 16)
		copy(fb, handle)
		if _, frame, errno := main.Ioctl(gpu, env.IoctlGLSwap, fb); errno != env.OK || frame != 1 {
			panic("ioctl swap")
		}
		t1 := main.ClockGettime()
		if t1 < t0 {
			panic("clock went backwards")
		}
		main.Printf("elapsed=%d\n", t1-t0)
		main.Close(gpu)
		main.Close(cfd)
		main.Close(lfd)
	}
}

func newSyscallWorld() *env.World {
	w := env.NewWorld(9)
	w.AddFile("/etc/motd", []byte("hello world"))
	return w
}

func startClient(w *env.World) { startClientAfter(w, 0) }

// startClientAfter starts syscallProgram's client, which connects after
// delay.
func startClientAfter(w *env.World, delay time.Duration) {
	go func() {
		time.Sleep(delay)
		conn, err := w.ExternalConnect(9100, 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Send([]byte("ping!"))
		conn.Recv(32, 2*time.Second)
		conn.Recv(32, 2*time.Second)
	}()
}

func TestAllSyscallWrappersRecordReplay(t *testing.T) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		world := newSyscallWorld()
		startClient(world)
		rt := newTestRuntime(t, Options{
			Strategy: strat, Seed1: 4, Seed2: 8, Record: true, World: world,
		})
		rec, err := rt.Run(syscallProgram(rt))
		if err != nil {
			t.Fatalf("%v record: %v", strat, err)
		}
		// The clock is recorded, so elapsed output must be reproduced; the
		// recorded stream must include the network calls.
		if len(rec.Demo.Syscalls) == 0 {
			t.Fatalf("%v: no syscalls recorded", strat)
		}

		// Replay with a fresh world: same files, NO client, NO signals.
		rt2 := newTestRuntime(t, Options{
			Strategy: strat, Replay: rec.Demo, World: newSyscallWorld(),
		})
		rep, err := rt2.Run(syscallProgram(rt2))
		if err != nil {
			t.Fatalf("%v replay: %v\nrecent: %v", strat, err, rep.RecentSchedule)
		}
		if string(rep.Output) != string(rec.Output) {
			t.Errorf("%v: replay output %q != recorded %q", strat, rep.Output, rec.Output)
		}
		if rep.SoftDesync {
			t.Errorf("%v: soft desync", strat)
		}
	}
}

// TestAcceptFdOutOfStep: a replayed accept whose recorded fd the fd table
// cannot hand out is a SYSCALL desync whose reason names both fds. A
// strict replay stops with it; a tolerant one reports it as its
// divergence and runs the accept live.
func TestAcceptFdOutOfStep(t *testing.T) {
	d, want := outOfStepAccept(t)
	rt2 := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: d, World: newSyscallWorld()})
	_, err := rt2.Run(syscallProgram(rt2))
	var de *demo.DesyncError
	if !errors.As(err, &de) || de.Stream != "SYSCALL" || de.Reason != want {
		t.Fatalf("strict replay err = %v, want a SYSCALL desync %q", err, want)
	}

	live := newSyscallWorld()
	startClient(live)
	opts := TolerantReplayOptions(d)
	opts.World = live
	rt3 := newTestRuntime(t, opts)
	rep, err := rt3.Run(syscallProgram(rt3))
	if err != nil {
		t.Fatalf("tolerant replay: %v", err)
	}
	if rep.Diverged == nil || rep.Diverged.Reason != want {
		t.Fatalf("tolerant replay diverged %v, want reason %q", rep.Diverged, want)
	}
}

// outOfStepAccept records syscallProgram and moves its successful
// accept4's fd 7 past the one the fd table hands out. It returns the
// demo and the reason a replay of it reports.
func outOfStepAccept(t *testing.T) (*demo.Demo, string) {
	t.Helper()
	world := newSyscallWorld()
	startClient(world)
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 4, Seed2: 8, Record: true, World: world,
	})
	rec, err := rt.Run(syscallProgram(rt))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	d := rec.Demo
	i := slices.IndexFunc(d.Syscalls, func(r demo.SyscallRecord) bool {
		return r.Kind == uint16(env.SysAccept4) && r.Ret >= 0
	})
	if i < 0 {
		t.Fatal("no successful accept4 recorded")
	}
	fd := d.Syscalls[i].Ret
	d.Syscalls[i].Ret = fd + 7
	return d, fmt.Sprintf("replayed accept fd %d out of step with the fd table (next fd %d)", fd+7, fd)
}

// TestDivergedReplayPollsWait: a tolerant replay runs live once it has
// diverged, so its timed polls park as a recording's do. Diverged at the
// accept, syscallProgram's accept loop waits in Poll for a live client
// that connects 200ms late; a poll that returned at once would spin
// through the loop's retries within milliseconds and panic.
func TestDivergedReplayPollsWait(t *testing.T) {
	d, want := outOfStepAccept(t)
	live := newSyscallWorld()
	startClientAfter(live, 200*time.Millisecond)
	opts := TolerantReplayOptions(d)
	opts.World = live
	rt := newTestRuntime(t, opts)
	rep, err := rt.Run(syscallProgram(rt))
	if err != nil {
		t.Fatalf("tolerant replay with a late client: %v", err)
	}
	if rep.Diverged == nil || rep.Diverged.Reason != want {
		t.Fatalf("tolerant replay diverged %v, want reason %q", rep.Diverged, want)
	}
}

// TestReplayAgainstEmptyWorldFilesLive: unrecorded file reads re-execute
// live, so replaying against a world with DIFFERENT file content produces
// a soft desync (output differs) while all hard constraints still hold.
func TestReplayFileContentChangeSoftDesyncs(t *testing.T) {
	world := newSyscallWorld()
	startClient(world)
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 4, Seed2: 8, Record: true, World: world,
	})
	rec, err := rt.Run(syscallProgram(rt))
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	altered := env.NewWorld(9)
	altered.AddFile("/etc/motd", []byte("TAMPERED CONTENT"))
	rt2 := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Replay: rec.Demo, World: altered,
	})
	rep, err := rt2.Run(syscallProgram(rt2))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.SoftDesync {
		t.Error("changed live file content did not soft-desync the replay")
	}
}

// TestSyscallMarginalAllocs counts what one more syscall allocates: bodies
// of n and 2n ClockGettime calls run under queue+rec and are then
// replayed, and the Mallocs deltas of the two sizes are compared, so the
// runs' fixed costs cancel. A replayed call is served from the SYSCALL
// stream and allocates nothing; a recorded call allocates at most its
// result buffer and the slice that holds it.
func TestSyscallMarginalAllocs(t *testing.T) {
	const n = 2000
	body := func(calls int) func(*Thread) {
		return func(main *Thread) {
			for i := 0; i < calls; i++ {
				main.ClockGettime()
			}
		}
	}
	mallocs := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var recorded, replayed [2]uint64
	for i, calls := range []int{n, 2 * n} {
		var rec *Report
		recorded[i] = mallocs(func() {
			rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2, Record: true})
			var err error
			if rec, err = rt.Run(body(calls)); err != nil {
				t.Fatalf("record %d calls: %v", calls, err)
			}
		})
		if got := len(rec.Demo.Syscalls); got != calls {
			t.Fatalf("recorded %d syscalls, want %d", got, calls)
		}
		replayed[i] = mallocs(func() {
			rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: rec.Demo})
			if _, err := rt.Run(body(calls)); err != nil {
				t.Fatalf("replay %d calls: %v", calls, err)
			}
		})
	}
	perCall := func(m [2]uint64) float64 { return (float64(m[1]) - float64(m[0])) / n }
	t.Logf("marginal mallocs per call: recorded %.2f, replayed %.2f", perCall(recorded), perCall(replayed))
	if got := perCall(replayed); got > 0.1 {
		t.Errorf("a replayed syscall allocates %.2f times, want 0", got)
	}
	if got := perCall(recorded); got > 2.1 {
		t.Errorf("a recorded syscall allocates %.2f times, want at most 2", got)
	}
}
