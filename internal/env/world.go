package env

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/obs"
)

// World is one virtual environment instance: a process's fd table plus the
// external endpoints connected to it. Program-side methods are called from
// inside scheduler critical sections; External* methods are called from
// plain goroutines; both lock w.mu.
type World struct {
	mu sync.Mutex
	// cond parks the waiters with no single object to wait on: program-side
	// WaitReadable pollers and ExternalConnect callers waiting for a
	// listener to appear. It is broadcast only on program-visible readiness
	// transitions and global events — NOT on every byte moved. Everything
	// with an identifiable object (an external Recv on one connection, an
	// external Accept on one listener, an epoll waiter) parks on that
	// object's own gate, so a wakeup costs O(parties affected), not
	// O(connections). The first such waiter makes it.
	cond *sync.Cond

	// The maps and the display are made on first write, so a run that
	// makes no syscall pays for none of them; a nil map reads as empty.
	start   time.Time
	nextFD  int
	fds     map[int]*fdesc
	ports   map[int]*listener // program-side listeners by port
	extPort map[int]*extListener
	files   map[string][]byte
	display *display

	// waiterConds registers every per-object wait gate ever created, so the
	// two all-waiters events — Interrupt and Shutdown — can reach them. The
	// list grows with live objects that ever blocked a waiter, not with
	// traffic.
	waiterConds []*sync.Cond

	// actAt is the wall time of the world's last change, in nanoseconds
	// since start, stamped only while virtual time is on. The advancer
	// (vtime.go) jumps the clock once it lies a check interval behind.
	actAt int64

	// Virtual time (vtime.go). When vtOn, ClockNanos returns vnow — virtual
	// nanoseconds since World creation — which advances only when timers
	// fire, so hours of modelled traffic replay in wall-clock seconds.
	// vtKick wakes the advancer, which parks on it while no timer is
	// pending.
	vtOn    bool
	vnow    int64
	vtSeq   uint64
	vtimers vtimerHeap
	vtKick  chan struct{}

	// stopCh is closed (once) by Interrupt/Shutdown so channel-based
	// waiters (virtual-time sleepers) unblock without polling a flag.
	stopCh     chan struct{}
	stopClosed bool

	// synQ holds half-open connections per port: ExternalConnect calls that
	// arrived before the program's Listen. Listen adopts the whole queue
	// into its backlog atomically (see Listen).
	synQ map[int][]*synConn

	// extRand supplies external-world nondeterminism (session tokens,
	// jitter). It is intentionally NOT the scheduler's recorded PRNG: the
	// external world is allowed to be nondeterministic during recording.
	extRand uint64
	closed  bool
	// interrupted is set by Interrupt when the scheduler stops: every
	// blocking waiter (program-side WaitReadable, external Recv/Accept/
	// Connect loops) must unblock even though the world is not yet shut
	// down, or a stopped run hangs until the waiters' timeouts expire.
	interrupted bool
	sigSinks    []func(sig int32)
	tr          *obs.Tracer // trace sink for external-world events; nil-safe
}

// SetTrace attaches an execution tracer; external stimuli (Kill,
// ExternalConnect) emit diagnostic events on the external track (TID -1).
// A nil tracer is valid and disables emission.
func (w *World) SetTrace(tr *obs.Tracer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tr = tr
}

type fdesc struct {
	kind FDKind
	// socket/pipe state
	peer   *buffers // stream buffers (shared with the other endpoint)
	inDir  int      // which side of the buffer pair we read from (0 or 1)
	lstn   *listener
	file   string
	offset int
	dev    *display
	ep     *epoll // batched readiness poller state (FDEpoll)
	closed bool
	// placeholder marks a replay-allocated fd that consumes a table slot
	// but connects to nothing; watch registrations accept it (readiness
	// is replayed, never observed live).
	placeholder bool
}

// buffers is a bidirectional stream. By convention the program side reads
// dir[0] and writes dir[1]; the external side reads dir[1] and writes
// dir[0]. closed[i] means the writer of dir[i] has closed (EOF for its
// reader).
type buffers struct {
	dir      [2][]byte
	closed   [2]bool
	refCount int
	// extCond parks the external endpoint's blocking Recv; lazily created,
	// signalled only by writes/closes on this connection.
	extCond *sync.Cond
	// watch[i] lists the epoll registrations interested in dir[i] becoming
	// readable (the program registers its read direction). Updated by
	// EpollCtl; fired by the write/close sites, making registration O(1)
	// and a readiness transition O(watching pollers).
	watch [2][]epollRef
}

type listener struct {
	port    int
	backlog []*buffers // pending connections (program accepts side 1)
	closed  bool
	watch   []epollRef // epoll registrations on the listening fd
}

// synConn is one half-open external connection queued before the listener
// existed; adopted flips when Listen moves it into the backlog.
type synConn struct {
	b       *buffers
	adopted bool
}

type extListener struct {
	port    int
	pending []*buffers // program connected, external side accepts side 0
	// cond parks external Accept callers; signalled by program Connects to
	// this port only.
	cond *sync.Cond
}

// NewWorld creates a virtual environment. seed perturbs external-world
// nondeterminism; pass different values to make recordings differ, the
// same value does NOT make executions deterministic (physical timing still
// leaks in), matching a real environment.
func NewWorld(seed uint64) *World {
	return &World{
		start:   time.Now(),
		nextFD:  3, // 0..2 reserved, as on POSIX
		extRand: seed ^ uint64(time.Now().UnixNano()),
		stopCh:  make(chan struct{}),
	}
}

// nextRandLocked is a SplitMix64 step over the external entropy.
func (w *World) nextRandLocked() uint64 {
	w.extRand += 0x9e3779b97f4a7c15
	z := w.extRand
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return bits.RotateLeft64(z^(z>>31), 17)
}

// bumpLocked stamps a world-state mutation for the virtual-time
// advancer, which fires a pending timer only once a whole check interval
// has passed since the last stamp. Pure reads and would-block checks do
// not bump, so a polling thread spinning on EAGAIN never holds virtual
// time back. With virtual time off there is nothing to stamp.
func (w *World) bumpLocked() {
	if w.vtOn {
		w.actAt = int64(time.Since(w.start))
	}
}

// newWaiterCondLocked allocates a directed wait gate tied to w.mu and
// registers it so Interrupt/Shutdown can reach it.
func (w *World) newWaiterCondLocked() *sync.Cond {
	c := sync.NewCond(&w.mu)
	w.waiterConds = append(w.waiterConds, c)
	return c
}

// progReadableLocked announces a program-visible readiness transition on
// the object carrying the given watch list: every registered epoll instance
// enqueues one batched event (O(1) per watching poller, dedup'd while
// queued), and the legacy WaitReadable pollers parked on w.cond get their
// broadcast. External per-connection waiters are NOT woken — they have
// their own gates.
func (w *World) progReadableLocked(refs []epollRef) {
	w.bumpLocked()
	for _, r := range refs {
		r.ep.enqueueLocked(r.fd)
	}
	w.broadcastLocked()
}

// broadcastLocked wakes the waiters parked on the global cond, if any
// waiter ever made it.
func (w *World) broadcastLocked() {
	if w.cond != nil {
		w.cond.Broadcast()
	}
}

// ClockNanos returns the wall-clock reading (nanoseconds since World
// creation); the virtual clock_gettime. Under virtual time (vtime.go) it
// returns the virtual clock instead, which advances only when the world
// quiesces into a pending timer.
func (w *World) ClockNanos() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clockNanosLocked()
}

func (w *World) clockNanosLocked() int64 {
	if w.vtOn {
		return w.vnow
	}
	return int64(time.Since(w.start))
}

// FDType reports the kind of fd, for sparse-policy decisions.
func (w *World) FDType(fd int) FDKind {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, ok := w.fds[fd]
	if !ok || d.closed {
		return FDInvalid
	}
	return d.kind
}

func (w *World) allocLocked(d *fdesc) int {
	fd := w.nextFD
	w.nextFD++
	if w.fds == nil {
		w.fds = make(map[int]*fdesc)
	}
	w.fds[fd] = d
	return fd
}

func (w *World) lookupLocked(fd int, kinds ...FDKind) (*fdesc, Errno) {
	d, ok := w.fds[fd]
	if !ok || d.closed {
		return nil, EBADF
	}
	if len(kinds) == 0 {
		return d, OK
	}
	for _, k := range kinds {
		if d.kind == k {
			return d, OK
		}
	}
	return nil, EINVAL
}

// Socket creates an unconnected stream socket.
func (w *World) Socket() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.allocLocked(&fdesc{kind: FDSocket})
}

// Bind binds a socket to a port. Binding converts it to a listener once
// Listen is called.
func (w *World) Bind(fd, port int) Errno {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, e := w.lookupLocked(fd, FDSocket)
	if e != OK {
		return e
	}
	if _, taken := w.ports[port]; taken {
		return EADDRINUSE
	}
	d.lstn = &listener{port: port}
	return OK
}

// Listen makes a bound socket a listener.
func (w *World) Listen(fd, backlog int) Errno {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, e := w.lookupLocked(fd, FDSocket)
	if e != OK {
		return e
	}
	if d.lstn == nil {
		return EINVAL
	}
	d.kind = FDListener
	if w.ports == nil {
		w.ports = make(map[int]*listener)
	}
	w.ports[d.lstn.port] = d.lstn
	// Adopt the SYN queue: every half-open connection dialled before the
	// listener existed lands in the backlog in one step, the way a kernel
	// accept queue fills from queued SYNs. An ab-style load generator whose
	// clients all dial during server boot is therefore guaranteed to present
	// its full concurrency to the first accept loop, no matter how quickly
	// the server absorbs connections one by one.
	for _, s := range w.synQ[d.lstn.port] {
		s.adopted = true
		d.lstn.backlog = append(d.lstn.backlog, s.b)
		if w.tr.Enabled() {
			w.tr.Emit(obs.Event{TID: -1, Kind: obs.KindExternal, Obj: uint64(d.lstn.port)})
		}
	}
	delete(w.synQ, d.lstn.port)
	// ExternalConnect callers waiting for this port to appear park on the
	// global cond; listener creation is a once-per-server event.
	w.bumpLocked()
	w.broadcastLocked()
	return OK
}

// Accept takes a pending connection off a listener, returning the new
// connection fd. Non-blocking: EAGAIN when none pending.
func (w *World) Accept(fd int) (int, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, e := w.lookupLocked(fd, FDListener)
	if e != OK {
		return -1, e
	}
	l := d.lstn
	if len(l.backlog) == 0 {
		return -1, EAGAIN
	}
	b := l.backlog[0]
	l.backlog = l.backlog[1:]
	w.bumpLocked()
	nfd := w.allocLocked(&fdesc{kind: FDSocket, peer: b, inDir: 0})
	return nfd, OK
}

// Connect connects a program-side socket to an external listener created
// with ExternalListen. Non-blocking but completes immediately.
func (w *World) Connect(fd, port int) Errno {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, e := w.lookupLocked(fd, FDSocket)
	if e != OK {
		return e
	}
	if d.peer != nil {
		return EISCONN
	}
	el, ok := w.extPort[port]
	if !ok {
		return ECONNREFUSED
	}
	b := &buffers{refCount: 2}
	d.peer = b
	d.inDir = 0 // program reads what external side (side 0... see below) writes
	// Program is side 1 on outbound connections: it reads dir[0], writes
	// dir[1].
	el.pending = append(el.pending, b)
	w.bumpLocked()
	if el.cond != nil {
		el.cond.Broadcast()
	}
	return OK
}

// Recv reads up to max bytes from a connected socket or pipe read end.
// Non-blocking: EAGAIN when no data, 0 bytes + OK on EOF.
func (w *World) Recv(fd, max int) ([]byte, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, e := w.lookupLocked(fd, FDSocket, FDPipeRead)
	if e != OK {
		return nil, e
	}
	if d.peer == nil {
		return nil, ENOTCONN
	}
	b := d.peer
	in := d.inDir
	if len(b.dir[in]) == 0 {
		if b.closed[in] {
			return nil, OK // EOF
		}
		return nil, EAGAIN
	}
	n := max
	if n > len(b.dir[in]) {
		n = len(b.dir[in])
	}
	out := append([]byte(nil), b.dir[in][:n]...)
	b.dir[in] = b.dir[in][n:]
	// Draining a buffer makes nothing newly readable: no wakeups (the
	// environment has no write-side backpressure).
	w.bumpLocked()
	return out, OK
}

// Send writes data to a connected socket or pipe write end.
func (w *World) Send(fd int, data []byte) (int, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, e := w.lookupLocked(fd, FDSocket, FDPipeWrite)
	if e != OK {
		return -1, e
	}
	if d.peer == nil {
		return -1, ENOTCONN
	}
	b := d.peer
	out := 1 - d.inDir
	if b.closed[out] || b.refCount < 2 {
		return -1, EPIPE
	}
	b.dir[out] = append(b.dir[out], data...)
	// The reader of dir[out] is the external endpoint (sockets) or another
	// program fd (pipes): wake the former's private gate, and any epoll
	// instance / poller watching the latter.
	if b.extCond != nil {
		b.extCond.Broadcast()
	}
	w.progReadableLocked(b.watch[out])
	return len(data), OK
}

// Pipe creates a unidirectional in-process pipe, returning (readFD,
// writeFD). Pipes carry IPC and are the fd kind the sparse policy must
// record (§4.4).
func (w *World) Pipe() (int, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := &buffers{refCount: 2}
	r := w.allocLocked(&fdesc{kind: FDPipeRead, peer: b, inDir: 0})
	wr := w.allocLocked(&fdesc{kind: FDPipeWrite, peer: b, inDir: 1})
	return r, wr
}

// Close closes an fd.
func (w *World) Close(fd int) Errno {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, ok := w.fds[fd]
	if !ok || d.closed {
		return EBADF
	}
	d.closed = true
	if d.peer != nil {
		out := 1 - d.inDir
		d.peer.closed[out] = true
		d.peer.refCount--
		// EOF is a readiness event for the other end's reader.
		if d.peer.extCond != nil {
			d.peer.extCond.Broadcast()
		}
		w.progReadableLocked(d.peer.watch[out])
	}
	if d.kind == FDListener && d.lstn != nil {
		d.lstn.closed = true
		delete(w.ports, d.lstn.port)
		w.bumpLocked()
	}
	if d.ep != nil {
		// Waiters blocked on a just-closed epoll fd must notice EBADF.
		d.ep.cond.Broadcast()
		w.bumpLocked()
	}
	return OK
}

// readableLocked reports whether fd would return data (or EOF, or a
// pending connection) immediately.
func (w *World) readableLocked(fd int) bool {
	d, ok := w.fds[fd]
	if !ok || d.closed {
		return false
	}
	switch d.kind {
	case FDListener:
		return len(d.lstn.backlog) > 0
	case FDSocket, FDPipeRead:
		if d.peer == nil {
			return false
		}
		return len(d.peer.dir[d.inDir]) > 0 || d.peer.closed[d.inDir]
	case FDFile:
		return true
	default:
		return false
	}
}

// PollFD is one entry of a Poll request, mirroring struct pollfd.
type PollFD struct {
	FD      int
	Events  int16
	Revents int16
}

// Poll event bits.
const (
	PollIn  int16 = 1
	PollOut int16 = 4
	PollErr int16 = 8
)

// Poll checks readiness of the given fds. The timeout is advisory only:
// like every program-side call it returns immediately (the controlled
// scheduler, not physical time, decides when the program retries), so a
// would-block poll returns 0 as if the timeout expired. This mirrors the
// paper's treatment of timers as scheduler-resolved nondeterminism (§3.2).
func (w *World) Poll(fds []PollFD, timeoutMS int) (int, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ready := 0
	for i := range fds {
		fds[i].Revents = 0
		d, ok := w.fds[fds[i].FD]
		if !ok || d.closed {
			fds[i].Revents = PollErr
			ready++
			continue
		}
		if fds[i].Events&PollIn != 0 && w.readableLocked(fds[i].FD) {
			fds[i].Revents |= PollIn
		}
		if fds[i].Events&PollOut != 0 && (d.kind == FDSocket || d.kind == FDPipeWrite) && d.peer != nil && !d.peer.closed[1-d.inDir] {
			fds[i].Revents |= PollOut
		}
		if fds[i].Revents != 0 {
			ready++
		}
	}
	return ready, OK
}

// Select is the fd_set flavour of Poll: it clears non-ready fds from the
// read set and returns the ready count.
func (w *World) Select(readFDs []int) ([]int, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ready []int
	for _, fd := range readFDs {
		if w.readableLocked(fd) {
			ready = append(ready, fd)
		}
	}
	return ready, OK
}

// AddFile installs a file in the virtual filesystem.
func (w *World) AddFile(name string, content []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.files == nil {
		w.files = make(map[string][]byte)
	}
	w.files[name] = append([]byte(nil), content...)
}

// FileContent returns a copy of a virtual file's content (test helper).
func (w *World) FileContent(name string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), c...), true
}

// Open opens a virtual file (or the display device, for paths under
// /dev/).
func (w *World) Open(name string) (int, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if name == DisplayPath {
		if w.display == nil {
			w.display = &display{}
		}
		return w.allocLocked(&fdesc{kind: FDDevice, dev: w.display}), OK
	}
	if _, ok := w.files[name]; !ok {
		return -1, ENOENT
	}
	return w.allocLocked(&fdesc{kind: FDFile, file: name}), OK
}

// Create creates (or truncates) a virtual file and opens it for writing.
func (w *World) Create(name string) (int, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.files == nil {
		w.files = make(map[string][]byte)
	}
	w.files[name] = nil
	return w.allocLocked(&fdesc{kind: FDFile, file: name}), OK
}

// Read reads up to max bytes from fd (file, pipe or socket).
func (w *World) Read(fd, max int) ([]byte, Errno) {
	w.mu.Lock()
	d, ok := w.fds[fd]
	if !ok || d.closed {
		w.mu.Unlock()
		return nil, EBADF
	}
	if d.kind == FDFile {
		content := w.files[d.file]
		if d.offset >= len(content) {
			w.mu.Unlock()
			return nil, OK // EOF
		}
		n := max
		if n > len(content)-d.offset {
			n = len(content) - d.offset
		}
		out := append([]byte(nil), content[d.offset:d.offset+n]...)
		d.offset += n
		w.bumpLocked()
		w.mu.Unlock()
		return out, OK
	}
	w.mu.Unlock()
	return w.Recv(fd, max)
}

// Write writes data to fd (file, pipe or socket).
func (w *World) Write(fd int, data []byte) (int, Errno) {
	w.mu.Lock()
	d, ok := w.fds[fd]
	if !ok || d.closed {
		w.mu.Unlock()
		return -1, EBADF
	}
	if d.kind == FDFile {
		w.files[d.file] = append(w.files[d.file], data...)
		w.bumpLocked()
		w.mu.Unlock()
		return len(data), OK
	}
	w.mu.Unlock()
	return w.Send(fd, data)
}

// AllocPlaceholder consumes an fd number without connecting it to
// anything. The replay engine uses it to keep the fd table aligned with
// recorded structural results (a replayed accept must still burn an fd).
func (w *World) AllocPlaceholder(kind FDKind) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.allocLocked(&fdesc{kind: kind, placeholder: true})
}

// WaitReadable blocks until one of fds is readable (or errored) or the
// timeout elapses. It is the blocking half of poll(2): the runtime calls it
// outside the critical section, so a polling thread parks in its invisible
// region (where the controlled scheduler lets other threads run) instead of
// busy-spinning through recorded poll calls.
func (w *World) WaitReadable(fds []PollFD, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed || w.interrupted {
			return
		}
		for i := range fds {
			if fds[i].Events&PollIn == 0 {
				continue
			}
			d, ok := w.fds[fds[i].FD]
			if !ok || d.closed || w.readableLocked(fds[i].FD) {
				return
			}
		}
		if !w.waitUntilLocked(deadline) {
			return
		}
	}
}
