package env

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

func TestSocketLifecycle(t *testing.T) {
	w := NewWorld(1)
	fd := w.Socket()
	if k := w.FDType(fd); k != FDSocket {
		t.Fatalf("kind %v", k)
	}
	if e := w.Bind(fd, 80); e != OK {
		t.Fatal(e)
	}
	if e := w.Listen(fd, 8); e != OK {
		t.Fatal(e)
	}
	if k := w.FDType(fd); k != FDListener {
		t.Fatalf("kind after listen: %v", k)
	}
	if _, e := w.Accept(fd); e != EAGAIN {
		t.Fatalf("accept on empty backlog: %v", e)
	}
	if e := w.Close(fd); e != OK {
		t.Fatal(e)
	}
	if e := w.Close(fd); e != EBADF {
		t.Fatalf("double close: %v", e)
	}
}

func TestBindConflicts(t *testing.T) {
	w := NewWorld(1)
	a, b := w.Socket(), w.Socket()
	w.Bind(a, 80)
	w.Listen(a, 1)
	if e := w.Bind(b, 80); e != EADDRINUSE {
		t.Fatalf("want EADDRINUSE, got %v", e)
	}
}

func TestExternalConnectAndEcho(t *testing.T) {
	w := NewWorld(2)
	lfd := w.Socket()
	w.Bind(lfd, 80)
	w.Listen(lfd, 8)

	done := make(chan error, 1)
	go func() {
		conn, err := w.ExternalConnect(80, time.Second)
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		if err := conn.Send([]byte("ping")); err != nil {
			done <- err
			return
		}
		resp, err := conn.Recv(16, time.Second)
		if err != nil {
			done <- err
			return
		}
		if string(resp) != "pong" {
			t.Errorf("got %q", resp)
		}
		done <- nil
	}()

	// Program side: poll, accept, echo.
	var cfd int
	deadline := time.Now().Add(time.Second)
	for {
		if nfd, e := w.Accept(lfd); e == OK {
			cfd = nfd
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no connection arrived")
		}
	}
	var req []byte
	for len(req) < 4 {
		if data, e := w.Recv(cfd, 16); e == OK && len(data) > 0 {
			req = append(req, data...)
		} else if e != EAGAIN && e != OK {
			t.Fatal(e)
		}
	}
	if string(req) != "ping" {
		t.Fatalf("got %q", req)
	}
	if _, e := w.Send(cfd, []byte("pong")); e != OK {
		t.Fatal(e)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestProgramConnectToExternalListener(t *testing.T) {
	w := NewWorld(3)
	l := w.ExternalListen(9000)
	fd := w.Socket()
	if e := w.Connect(fd, 9000); e != OK {
		t.Fatal(e)
	}
	conn, err := l.Accept(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Send(fd, []byte("hello"))
	data, err := conn.Recv(16, time.Second)
	if err != nil || string(data) != "hello" {
		t.Fatalf("%q %v", data, err)
	}
	conn.Send([]byte("world"))
	for {
		data, e := w.Recv(fd, 16)
		if e == EAGAIN {
			continue
		}
		if e != OK || string(data) != "world" {
			t.Fatalf("%q %v", data, e)
		}
		break
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	w := NewWorld(1)
	fd := w.Socket()
	if e := w.Connect(fd, 1234); e != ECONNREFUSED {
		t.Fatalf("want ECONNREFUSED, got %v", e)
	}
}

func TestPipeSemantics(t *testing.T) {
	w := NewWorld(1)
	r, wr := w.Pipe()
	if _, e := w.Recv(r, 4); e != EAGAIN {
		t.Fatalf("empty pipe: %v", e)
	}
	w.Write(wr, []byte("abc"))
	data, e := w.Read(r, 2)
	if e != OK || string(data) != "ab" {
		t.Fatalf("%q %v", data, e)
	}
	w.Close(wr)
	data, e = w.Read(r, 4)
	if e != OK || string(data) != "c" {
		t.Fatalf("%q %v", data, e)
	}
	// EOF after writer close and drain.
	data, e = w.Read(r, 4)
	if e != OK || len(data) != 0 {
		t.Fatalf("EOF expected, got %q %v", data, e)
	}
}

func TestFiles(t *testing.T) {
	w := NewWorld(1)
	w.AddFile("/etc/config", []byte("hello file"))
	fd, e := w.Open("/etc/config")
	if e != OK {
		t.Fatal(e)
	}
	var all []byte
	for {
		data, e := w.Read(fd, 4)
		if e != OK {
			t.Fatal(e)
		}
		if len(data) == 0 {
			break
		}
		all = append(all, data...)
	}
	if string(all) != "hello file" {
		t.Fatalf("%q", all)
	}
	if _, e := w.Open("/missing"); e != ENOENT {
		t.Fatalf("want ENOENT, got %v", e)
	}
	out, e := w.Create("/out")
	if e != OK {
		t.Fatal(e)
	}
	w.Write(out, []byte("xyz"))
	content, ok := w.FileContent("/out")
	if !ok || !bytes.Equal(content, []byte("xyz")) {
		t.Fatalf("%q %v", content, ok)
	}
}

func TestPollReadiness(t *testing.T) {
	w := NewWorld(1)
	r, wr := w.Pipe()
	fds := []PollFD{{FD: r, Events: PollIn}}
	n, _ := w.Poll(fds, 0)
	if n != 0 || fds[0].Revents != 0 {
		t.Fatal("empty pipe reported readable")
	}
	w.Write(wr, []byte("x"))
	n, _ = w.Poll(fds, 0)
	if n != 1 || fds[0].Revents&PollIn == 0 {
		t.Fatal("readable pipe not reported")
	}
	bad := []PollFD{{FD: 999, Events: PollIn}}
	n, _ = w.Poll(bad, 0)
	if n != 1 || bad[0].Revents&PollErr == 0 {
		t.Fatal("bad fd not flagged")
	}
}

func TestSelect(t *testing.T) {
	w := NewWorld(1)
	r, wr := w.Pipe()
	r2, _ := w.Pipe()
	w.Write(wr, []byte("x"))
	ready, e := w.Select([]int{r, r2})
	if e != OK || len(ready) != 1 || ready[0] != r {
		t.Fatalf("%v %v", ready, e)
	}
}

func TestWaitReadableUnblocksOnData(t *testing.T) {
	w := NewWorld(1)
	r, wr := w.Pipe()
	go func() {
		time.Sleep(5 * time.Millisecond)
		w.Write(wr, []byte("x"))
	}()
	start := time.Now()
	w.WaitReadable([]PollFD{{FD: r, Events: PollIn}}, time.Second)
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("WaitReadable waited for the full timeout despite data")
	}
}

func TestClockMonotonic(t *testing.T) {
	w := NewWorld(1)
	a := w.ClockNanos()
	time.Sleep(time.Millisecond)
	b := w.ClockNanos()
	if b <= a {
		t.Fatalf("clock not monotonic: %d then %d", a, b)
	}
}

func TestDisplayDevice(t *testing.T) {
	w := NewWorld(7)
	fd, e := w.Open(DisplayPath)
	if e != OK {
		t.Fatal(e)
	}
	// Swap before init: rejected.
	if _, ret, e := w.Ioctl(fd, IoctlGLSwap, make([]byte, 8)); e != EINVAL || ret != -1 {
		t.Fatalf("uninitialised swap: ret %d errno %v", ret, e)
	}
	handle, _, e := w.Ioctl(fd, IoctlGLInit, nil)
	if e != OK || len(handle) != 8 {
		t.Fatalf("init: %v %v", handle, e)
	}
	fb := make([]byte, 64)
	copy(fb, handle)
	if _, ret, e := w.Ioctl(fd, IoctlGLSwap, fb); e != OK || ret != 1 {
		t.Fatalf("swap: ret %d errno %v", ret, e)
	}
	if w.DisplayFrames() != 1 {
		t.Fatalf("frames %d", w.DisplayFrames())
	}
	// A stale handle (e.g. replayed from a previous session) is rejected.
	stale := make([]byte, 64)
	binary.LittleEndian.PutUint64(stale, binary.LittleEndian.Uint64(handle)^1)
	if _, _, e := w.Ioctl(fd, IoctlGLSwap, stale); e != EINVAL {
		t.Fatalf("stale handle accepted: %v", e)
	}
	// Re-init invalidates old handles (fresh session token).
	h2, _, _ := w.Ioctl(fd, IoctlGLInit, nil)
	if bytes.Equal(h2, handle) {
		t.Fatal("session handle not refreshed on re-init")
	}
	if _, _, e := w.Ioctl(fd, IoctlGLSwap, fb); e != EINVAL {
		t.Fatal("old-session handle accepted after re-init")
	}
	// Vsync returns a plausible interval.
	vs, _, e := w.Ioctl(fd, IoctlGLVsync, nil)
	if e != OK || len(vs) != 8 {
		t.Fatalf("vsync: %v %v", vs, e)
	}
	if d := binary.LittleEndian.Uint64(vs); d > uint64(time.Second/60) {
		t.Fatalf("vsync interval %d implausible", d)
	}
	// Unknown command.
	if _, _, e := w.Ioctl(fd, 0x9999, nil); e != ENOTSUP {
		t.Fatalf("unknown ioctl: %v", e)
	}
	// Ioctl on a non-device fd.
	sock := w.Socket()
	if _, _, e := w.Ioctl(sock, IoctlGLInit, nil); e != ENOTSUP {
		t.Fatalf("ioctl on socket: %v", e)
	}
}

func TestSignalSink(t *testing.T) {
	w := NewWorld(1)
	got := make(chan int32, 1)
	w.RegisterSignalSink(func(sig int32) { got <- sig })
	w.Kill(15)
	select {
	case s := <-got:
		if s != 15 {
			t.Fatalf("sig %d", s)
		}
	case <-time.After(time.Second):
		t.Fatal("signal never delivered")
	}
}

func TestShutdownUnblocksExternals(t *testing.T) {
	w := NewWorld(1)
	done := make(chan error, 1)
	go func() {
		_, err := w.ExternalConnect(4242, 10*time.Second)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	w.Shutdown()
	select {
	case err := <-done:
		if err != ErrWorldClosed {
			t.Fatalf("got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("external connect not unblocked by shutdown")
	}
}

func TestSendToClosedPeer(t *testing.T) {
	w := NewWorld(1)
	l := w.ExternalListen(5000)
	fd := w.Socket()
	w.Connect(fd, 5000)
	conn, err := l.Accept(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, e := w.Send(fd, []byte("x")); e != EPIPE {
		t.Fatalf("send to closed peer: %v", e)
	}
}

func TestAllocPlaceholder(t *testing.T) {
	w := NewWorld(1)
	a := w.Socket()
	b := w.AllocPlaceholder(FDSocket)
	if b != a+1 {
		t.Fatalf("placeholder fd %d, want %d", b, a+1)
	}
	if w.FDType(b) != FDSocket {
		t.Fatal("placeholder kind wrong")
	}
}

func TestDatagramSockets(t *testing.T) {
	w := NewWorld(4)
	// External "server" on port 5000.
	srv, err := w.ExternalDgram(5000)
	if err != nil {
		t.Fatal(err)
	}
	// Program-side client.
	fd := w.SocketDgram()
	if _, e := w.Sendto(fd, []byte("join"), 5000); e != OK {
		t.Fatal(e)
	}
	data, from, err := srv.Recv(64, time.Second)
	if err != nil || string(data) != "join" {
		t.Fatalf("%q %v", data, err)
	}
	if err := srv.Send([]byte("welcome-to-the-server"), from); err != nil {
		t.Fatal(err)
	}
	// Non-blocking receive with truncation.
	var payload []byte
	var src int
	for {
		d, f, e := w.Recvfrom(fd, 7)
		if e == EAGAIN {
			continue
		}
		if e != OK {
			t.Fatal(e)
		}
		payload, src = d, f
		break
	}
	if string(payload) != "welcome" || src != 5000 {
		t.Fatalf("payload %q from %d", payload, src)
	}
	// One datagram per Recvfrom: the truncated remainder is gone.
	if _, _, e := w.Recvfrom(fd, 64); e != EAGAIN {
		t.Fatalf("expected empty inbox, got %v", e)
	}
	// Bound ports conflict.
	fd2 := w.SocketDgram()
	if e := w.BindDgram(fd2, 5000); e != EADDRINUSE {
		t.Fatalf("expected EADDRINUSE, got %v", e)
	}
	// Send to nowhere.
	if _, e := w.Sendto(fd, []byte("x"), 1); e != ECONNREFUSED {
		t.Fatalf("expected ECONNREFUSED, got %v", e)
	}
	// Close releases the ephemeral port.
	w.Close(fd)
	if _, e := w.Sendto(fd, []byte("x"), 5000); e != EBADF {
		t.Fatalf("send on closed dgram socket: %v", e)
	}
}

// TestSysNames pins every syscall kind's name, the SYSCALL stream's codes
// as the debugger and traces show them, and checks that String, which
// runs on every instrumented syscall, allocates nothing.
func TestSysNames(t *testing.T) {
	want := map[Sys]string{
		SysRead: "read", SysWrite: "write", SysRecv: "recv",
		SysRecvmsg: "recvmsg", SysSend: "send", SysSendmsg: "sendmsg",
		SysAccept: "accept", SysAccept4: "accept4",
		SysClockGettime: "clock_gettime", SysIoctl: "ioctl",
		SysSelect: "select", SysBind: "bind", SysPoll: "poll",
		SysSocket: "socket", SysListen: "listen", SysConnect: "connect",
		SysClose: "close", SysOpen: "open", SysPipe: "pipe",
		SysEpollCreate: "epoll_create", SysEpollCtl: "epoll_ctl",
		SysEpollWait: "epoll_wait",
	}
	if len(want) != int(SysEpollWait) {
		t.Fatalf("pinned %d names for %d kinds", len(want), SysEpollWait)
	}
	for s := SysRead; s <= SysEpollWait; s++ {
		if got := s.String(); got != want[s] {
			t.Errorf("Sys(%d).String() = %q, want %q", s, got, want[s])
		}
	}
	for _, s := range []Sys{0, SysEpollWait + 1, 0xFFFF} {
		if got := s.String(); got != "sys?" {
			t.Errorf("Sys(%d).String() = %q, want \"sys?\"", s, got)
		}
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = SysClockGettime.String() }); allocs != 0 {
		t.Errorf("Sys.String allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
