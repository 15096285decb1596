package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/env"
)

// TestStopUnblocksVirtualRecvWaiter reproduces the shutdown hang the
// scheduler's OnStop→World.Interrupt wiring fixes. An external-world
// goroutine blocks in a virtual accept with a long timeout while a program
// thread sits in an invisible region waiting (through plain Go channels,
// invisible to the scheduler) for that accept to return. When the run
// stops — here via a main-thread panic — the stop must propagate into the
// env waiter queues: without it, the external accept sits out its full
// timeout, the program thread never finishes, and Run hangs in wg.Wait
// before it can reach World.Shutdown.
func TestStopUnblocksVirtualRecvWaiter(t *testing.T) {
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2})

	acceptDone := make(chan error, 1)
	listening := make(chan struct{})
	go func() {
		el := rt.World().ExternalListen(9100)
		close(listening)
		_, err := el.Accept(time.Minute) // blocked: the program never connects
		acceptDone <- err
	}()
	<-listening

	runDone := make(chan error, 1)
	go func() {
		_, err := rt.Run(func(main *Thread) {
			main.Spawn("lingerer", func(w *Thread) {
				// Invisible region: wait for the external accept to finish.
				// The scheduler cannot abort this thread until it returns,
				// so Run's wg.Wait hangs exactly as long as the accept does.
				<-acceptDone
			})
			main.Yield()
			panic("stop the run")
		})
		runDone <- err
	}()

	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("Run returned nil error despite the panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung: scheduler stop did not unblock the env accept waiter")
	}
}

// TestStopUnblocksExternalStreamWaiter is the connected-stream flavour: the
// external peer is parked in ExtConn.Recv when the run deadlocks, and the
// deadlock declaration must release it with ErrWorldClosed well before its
// timeout.
func TestStopUnblocksExternalStreamWaiter(t *testing.T) {
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 3, Seed2: 4,
		WallTimeout: 5 * time.Second,
	})

	recvDone := make(chan error, 1)
	_, err := rt.Run(func(main *Thread) {
		fd := main.Socket()
		if e := main.Bind(fd, 80); e != env.OK {
			panic(e)
		}
		if e := main.Listen(fd, 4); e != env.OK {
			panic(e)
		}
		go func() {
			conn, err := rt.World().ExternalConnect(80, time.Minute)
			if err != nil {
				recvDone <- err
				return
			}
			_, err = conn.Recv(64, time.Minute) // program never sends
			recvDone <- err
		}()
		// Deadlock the program: a self-join is impossible, so block on a
		// mutex the main thread already holds.
		mu := rt.NewMutex("self")
		mu.Lock(main)
		mu.Lock(main)
	})
	if err == nil {
		t.Fatal("Run returned nil error despite the deadlock")
	}
	select {
	case rerr := <-recvDone:
		if !errors.Is(rerr, env.ErrWorldClosed) {
			t.Fatalf("external recv returned %v, want ErrWorldClosed", rerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("external recv still blocked after the run stopped")
	}
}
