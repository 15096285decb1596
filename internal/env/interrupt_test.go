package env

import (
	"errors"
	"testing"
	"time"
)

// waiterTimeout bounds how long the tests below wait for an interrupted
// waiter to return; all waiters block with timeouts far beyond it, so a
// test that trips it has found a waiter Interrupt does not reach.
const waiterTimeout = 2 * time.Second

// TestInterruptUnblocksExternalWaiters parks one goroutine in each
// external-world blocking loop — connect, stream recv, accept — then
// interrupts the world and requires every one of them to return
// ErrWorldClosed long before its own timeout.
func TestInterruptUnblocksExternalWaiters(t *testing.T) {
	w := NewWorld(1)

	// Stream endpoints: program listener + external connection blocked in
	// Recv with nothing to read.
	lfd := w.Socket()
	if e := w.Bind(lfd, 80); e != OK {
		t.Fatal(e)
	}
	if e := w.Listen(lfd, 4); e != OK {
		t.Fatal(e)
	}
	conn, err := w.ExternalConnect(80, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// External listener with no program-side Connect coming.
	el := w.ExternalListen(7000)

	errc := make(chan error, 3)
	go func() {
		_, err := conn.Recv(64, time.Minute)
		errc <- err
	}()
	go func() {
		_, err := el.Accept(time.Minute)
		errc <- err
	}()
	go func() {
		// No listener on this port: the connect loop parks until timeout.
		_, err := w.ExternalConnect(81, time.Minute)
		errc <- err
	}()

	// Give the goroutines a moment to park, then interrupt.
	time.Sleep(10 * time.Millisecond)
	w.Interrupt()

	for i := 0; i < 3; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrWorldClosed) {
				t.Fatalf("waiter %d: got %v, want ErrWorldClosed", i, err)
			}
		case <-time.After(waiterTimeout):
			t.Fatalf("waiter %d still blocked after Interrupt", i)
		}
	}
}

// TestInterruptUnblocksWaitReadable parks the program-side blocking poll
// half on an empty pipe and interrupts it.
func TestInterruptUnblocksWaitReadable(t *testing.T) {
	w := NewWorld(1)
	r, _ := w.Pipe()
	done := make(chan struct{})
	go func() {
		w.WaitReadable([]PollFD{{FD: r, Events: PollIn}}, time.Minute)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	w.Interrupt()
	select {
	case <-done:
	case <-time.After(waiterTimeout):
		t.Fatal("WaitReadable still blocked after Interrupt")
	}
}
