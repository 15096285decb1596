package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Instrumented syscall wrappers (§4.4). Each wrapper is one visible
// operation. Only the interaction with the SYSCALL stream is inside the
// critical section, and the sparse policy decides, per call kind and fd
// kind, whether results are recorded (and replayed) or the call re-executes
// live.

// sysResult is the uniform shape of a virtual syscall's outputs.
type sysResult struct {
	ret   int64
	errno env.Errno
	bufs  [][]byte
}

// syscall runs one instrumented syscall. fd < 0 means "no fd" (e.g.
// clock_gettime). live executes the call against the environment.
func (t *Thread) syscall(kind env.Sys, fd int, live func() sysResult) sysResult {
	rt := t.rt
	if rt.opts.PerEventOverhead > 0 {
		// rr-model: each syscall is a ptrace trap-stop-resume cycle.
		spin(rt.opts.PerEventOverhead)
	}
	var res sysResult
	t.criticalOp(obs.KindSyscall, uint64(kind), kind.String(), func() {
		fdk := env.FDInvalid
		if fd >= 0 {
			fdk = rt.world.FDType(fd)
		}
		record := rt.opts.Policy.ShouldRecord(kind, fdk)
		if rt.rep != nil && record {
			consumed, _ := rt.rep.SyscallCursor()
			tick := rt.sch.TickCount()
			rec, replayed, err := rt.rep.NextSyscall(int32(t.id), uint16(kind), tick)
			if replayed {
				if de := rt.replayFixup(kind, rec.Ret); de != nil {
					de.Tick, de.TID, de.Offset = tick, int32(t.id), uint64(consumed)
					replayed, err = false, rt.rep.Desync(de)
				}
			}
			if err != nil {
				rt.sch.Stop(err)
				panic(sched.Abort{Err: err})
			}
			if replayed {
				res = sysResult{ret: rec.Ret, errno: env.Errno(rec.Errno), bufs: rec.Bufs}
				if rt.rec != nil {
					// Tolerant-record: the replayed result re-enters the
					// new recording, keeping its SYSCALL stream complete.
					rt.rec.AddSyscall(demo.SyscallRecord{
						TID: int32(t.id), Kind: uint16(kind),
						Ret: res.ret, Errno: int32(res.errno), Bufs: res.bufs,
					})
				}
				t.evArg = res.ret
				t.evStream, t.evOff = obs.StreamSyscall, uint64(consumed)
				return
			}
			// A tolerant replay that diverged on this call (mismatch,
			// exhausted stream, or fixup drift) executes it live, like
			// every call after the divergence point.
		}
		res = live()
		if rt.rec != nil && record {
			idx := rt.rec.AddSyscall(demo.SyscallRecord{
				TID: int32(t.id), Kind: uint16(kind),
				Ret: res.ret, Errno: int32(res.errno), Bufs: res.bufs,
			})
			t.evStream, t.evOff = obs.StreamSyscall, uint64(idx)
		}
		t.evArg = res.ret
	})
	return res
}

// replayFixup keeps environment state aligned with recorded results that
// have structural side effects: a replayed accept must still consume an fd
// number so later live calls see the same fd table. It returns the desync
// of a result the fd table cannot honour, for the caller to place and hand
// to the replay policy, and nil otherwise.
func (rt *Runtime) replayFixup(kind env.Sys, ret int64) *demo.DesyncError {
	if (kind != env.SysAccept && kind != env.SysAccept4) || ret < 0 {
		return nil
	}
	if got := rt.world.AllocPlaceholder(env.FDSocket); int64(got) != ret {
		return &demo.DesyncError{
			Stream:   "SYSCALL",
			Reason:   fmt.Sprintf("replayed accept fd %d out of step with the fd table (next fd %d)", ret, got),
			Expected: fmt.Sprintf("accept -> fd %d", ret),
			Observed: fmt.Sprintf("fd table would hand out fd %d", got),
		}
	}
	return nil
}

// Socket creates a stream socket (always live: structural).
func (t *Thread) Socket() int {
	r := t.syscall(env.SysSocket, -1, func() sysResult {
		return sysResult{ret: int64(t.rt.world.Socket())}
	})
	return int(r.ret)
}

// Bind binds a socket to a port.
func (t *Thread) Bind(fd, port int) env.Errno {
	r := t.syscall(env.SysBind, fd, func() sysResult {
		return sysResult{errno: t.rt.world.Bind(fd, port)}
	})
	return r.errno
}

// Listen marks a bound socket as listening.
func (t *Thread) Listen(fd, backlog int) env.Errno {
	r := t.syscall(env.SysListen, fd, func() sysResult {
		return sysResult{errno: t.rt.world.Listen(fd, backlog)}
	})
	return r.errno
}

// Connect dials an external listener.
func (t *Thread) Connect(fd, port int) env.Errno {
	r := t.syscall(env.SysConnect, fd, func() sysResult {
		return sysResult{errno: t.rt.world.Connect(fd, port)}
	})
	return r.errno
}

// Accept takes a pending connection; EAGAIN when none (non-blocking, as
// the whole program-side surface is).
func (t *Thread) Accept(fd int) (int, env.Errno) {
	r := t.syscall(env.SysAccept, fd, func() sysResult {
		nfd, errno := t.rt.world.Accept(fd)
		return sysResult{ret: int64(nfd), errno: errno}
	})
	return int(r.ret), r.errno
}

// Recv reads up to max bytes from a socket; EAGAIN when no data, empty
// slice + OK on EOF.
func (t *Thread) Recv(fd, max int) ([]byte, env.Errno) {
	r := t.syscall(env.SysRecv, fd, func() sysResult {
		data, errno := t.rt.world.Recv(fd, max)
		return sysResult{ret: int64(len(data)), errno: errno, bufs: [][]byte{data}}
	})
	return firstBuf(r), r.errno
}

// Send writes data to a socket.
func (t *Thread) Send(fd int, data []byte) (int, env.Errno) {
	r := t.syscall(env.SysSend, fd, func() sysResult {
		n, errno := t.rt.world.Send(fd, data)
		return sysResult{ret: int64(n), errno: errno}
	})
	return int(r.ret), r.errno
}

// Read reads up to max bytes from a file, pipe or socket.
func (t *Thread) Read(fd, max int) ([]byte, env.Errno) {
	r := t.syscall(env.SysRead, fd, func() sysResult {
		data, errno := t.rt.world.Read(fd, max)
		return sysResult{ret: int64(len(data)), errno: errno, bufs: [][]byte{data}}
	})
	return firstBuf(r), r.errno
}

// Write writes data to a file, pipe or socket.
func (t *Thread) Write(fd int, data []byte) (int, env.Errno) {
	r := t.syscall(env.SysWrite, fd, func() sysResult {
		n, errno := t.rt.world.Write(fd, data)
		return sysResult{ret: int64(n), errno: errno}
	})
	return int(r.ret), r.errno
}

// Poll checks readiness of fds. A positive timeout first parks the thread
// (outside the critical section, capped at 2ms so the liveness machinery
// stays responsive) until an fd is ready, then the poll itself executes
// non-blockingly; so a would-block poll returns 0 as if the timeout
// expired, mirroring the paper's treatment of timers as nondeterminism the
// scheduler resolves (§3.2). The fds slice's Revents fields are filled in.
func (t *Thread) Poll(fds []env.PollFD, timeoutMS int) (int, env.Errno) {
	if timeoutMS > 0 && t.rt.rep == nil {
		wait := time.Duration(timeoutMS) * time.Millisecond
		if wait > 2*time.Millisecond {
			wait = 2 * time.Millisecond
		}
		t.rt.world.WaitReadable(fds, wait)
	}
	r := t.syscall(env.SysPoll, pollPolicyFD(t, fds), func() sysResult {
		n, errno := t.rt.world.Poll(fds, timeoutMS)
		out := make([]byte, 2*len(fds))
		for i := range fds {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(fds[i].Revents))
		}
		return sysResult{ret: int64(n), errno: errno, bufs: [][]byte{out}}
	})
	if t.rt.rep != nil && len(r.bufs) == 1 && len(r.bufs[0]) == 2*len(fds) {
		for i := range fds {
			fds[i].Revents = int16(binary.LittleEndian.Uint16(r.bufs[0][2*i:]))
		}
	}
	return int(r.ret), r.errno
}

// pollPolicyFD picks the fd whose kind drives the recording decision for a
// poll/select set: the first entry (poll sets are homogeneous in our
// applications, as in httpd's listener loop).
func pollPolicyFD(t *Thread, fds []env.PollFD) int {
	if len(fds) == 0 {
		return -1
	}
	return fds[0].FD
}

// Select returns the subset of readFDs that are ready.
func (t *Thread) Select(readFDs []int) ([]int, env.Errno) {
	fd := -1
	if len(readFDs) > 0 {
		fd = readFDs[0]
	}
	r := t.syscall(env.SysSelect, fd, func() sysResult {
		ready, errno := t.rt.world.Select(readFDs)
		out := make([]byte, 4*len(ready))
		for i, rfd := range ready {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(rfd))
		}
		return sysResult{ret: int64(len(ready)), errno: errno, bufs: [][]byte{out}}
	})
	// A live call returns a non-nil set; a replayed empty one stays nil.
	var ready []int
	if t.rt.rep == nil {
		ready = make([]int, 0, r.ret)
	}
	if len(r.bufs) == 1 {
		for i := 0; i+4 <= len(r.bufs[0]); i += 4 {
			ready = append(ready, int(binary.LittleEndian.Uint32(r.bufs[0][i:])))
		}
	}
	return ready, r.errno
}

// EpollCreate allocates an epoll instance (structural, never recorded).
func (t *Thread) EpollCreate() int {
	r := t.syscall(env.SysEpollCreate, -1, func() sysResult {
		return sysResult{ret: int64(t.rt.world.EpollCreate())}
	})
	return int(r.ret)
}

// EpollCtl adds or removes fd from the instance's interest set
// (structural, never recorded: the interest set is program state, not
// environment nondeterminism).
func (t *Thread) EpollCtl(epfd, op, fd int, events int16) env.Errno {
	r := t.syscall(env.SysEpollCtl, epfd, func() sysResult {
		return sysResult{errno: t.rt.world.EpollCtl(epfd, op, fd, events)}
	})
	return r.errno
}

// EpollWait delivers up to max ready events from the instance's readiness
// index. A positive timeout first parks the thread outside the critical
// section (capped like Poll so liveness checks stay responsive) until the
// instance has a ready candidate; the delivery itself is non-blocking and
// costs one visible operation for the whole batch — the scalability
// contract that lets one thread multiplex thousands of connections. The
// batch is recorded under the Net policy, like a poll result set.
func (t *Thread) EpollWait(epfd, max, timeoutMS int) ([]env.EpollEvent, env.Errno) {
	if timeoutMS > 0 && t.rt.rep == nil {
		wait := time.Duration(timeoutMS) * time.Millisecond
		if wait > 2*time.Millisecond {
			wait = 2 * time.Millisecond
		}
		t.rt.world.WaitEpoll(epfd, wait)
	}
	r := t.syscall(env.SysEpollWait, epfd, func() sysResult {
		evs, errno := t.rt.world.EpollWait(epfd, max)
		out := make([]byte, 6*len(evs))
		for i, ev := range evs {
			binary.LittleEndian.PutUint32(out[6*i:], uint32(ev.FD))
			binary.LittleEndian.PutUint16(out[6*i+4:], uint16(ev.Events))
		}
		return sysResult{ret: int64(len(evs)), errno: errno, bufs: [][]byte{out}}
	})
	var evs []env.EpollEvent
	if len(r.bufs) == 1 {
		b := r.bufs[0]
		for i := 0; i+6 <= len(b); i += 6 {
			evs = append(evs, env.EpollEvent{
				FD:     int(binary.LittleEndian.Uint32(b[i:])),
				Events: int16(binary.LittleEndian.Uint16(b[i+4:])),
			})
		}
	}
	return evs, r.errno
}

// ClockGettime reads the virtual wall clock (nanoseconds). Recorded under
// any policy with Clock set, making time deterministic during replay.
func (t *Thread) ClockGettime() int64 {
	r := t.syscall(env.SysClockGettime, -1, func() sysResult {
		nanos := t.rt.world.ClockNanos()
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(nanos))
		return sysResult{bufs: [][]byte{out}}
	})
	if len(r.bufs) == 1 && len(r.bufs[0]) == 8 {
		return int64(binary.LittleEndian.Uint64(r.bufs[0]))
	}
	return 0
}

// Ioctl issues a device control call. Under PolicyRR device ioctls are
// refused, reproducing rr's game limitation (§5.4).
func (t *Thread) Ioctl(fd int, cmd uint32, in []byte) ([]byte, int64, env.Errno) {
	if t.rt.opts.Policy.RefuseIoctl && t.rt.world.FDType(fd) == env.FDDevice {
		return nil, -1, env.ENOTSUP
	}
	r := t.syscall(env.SysIoctl, fd, func() sysResult {
		out, ret, errno := t.rt.world.Ioctl(fd, cmd, in)
		return sysResult{ret: ret, errno: errno, bufs: [][]byte{out}}
	})
	return firstBuf(r), r.ret, r.errno
}

// Open opens a virtual file or device node.
func (t *Thread) Open(name string) (int, env.Errno) {
	r := t.syscall(env.SysOpen, -1, func() sysResult {
		fd, errno := t.rt.world.Open(name)
		return sysResult{ret: int64(fd), errno: errno}
	})
	return int(r.ret), r.errno
}

// Create creates/truncates a virtual file.
func (t *Thread) Create(name string) (int, env.Errno) {
	r := t.syscall(env.SysOpen, -1, func() sysResult {
		fd, errno := t.rt.world.Create(name)
		return sysResult{ret: int64(fd), errno: errno}
	})
	return int(r.ret), r.errno
}

// Close closes an fd.
func (t *Thread) Close(fd int) env.Errno {
	r := t.syscall(env.SysClose, fd, func() sysResult {
		return sysResult{errno: t.rt.world.Close(fd)}
	})
	return r.errno
}

// Pipe creates an IPC pipe, returning (readFD, writeFD).
func (t *Thread) Pipe() (int, int) {
	var pr, pw int
	// Structural calls are never recorded, so the live call runs during
	// replay too and pr/pw are valid either way.
	t.syscall(env.SysPipe, -1, func() sysResult {
		pr, pw = t.rt.world.Pipe()
		return sysResult{}
	})
	return pr, pw
}

func firstBuf(r sysResult) []byte {
	if len(r.bufs) == 0 {
		return nil
	}
	return r.bufs[0]
}

// Recvmsg is the message-oriented flavour of Recv (the paper's supported
// set lists recvmsg separately, §4.4); the virtual environment delivers
// the same stream data but the call records under its own kind, so a
// replayed recvmsg cannot be satisfied by a recorded recv.
func (t *Thread) Recvmsg(fd, max int) ([]byte, env.Errno) {
	r := t.syscall(env.SysRecvmsg, fd, func() sysResult {
		data, errno := t.rt.world.Recv(fd, max)
		return sysResult{ret: int64(len(data)), errno: errno, bufs: [][]byte{data}}
	})
	return firstBuf(r), r.errno
}

// Sendmsg is the message-oriented flavour of Send.
func (t *Thread) Sendmsg(fd int, data []byte) (int, env.Errno) {
	r := t.syscall(env.SysSendmsg, fd, func() sysResult {
		n, errno := t.rt.world.Send(fd, data)
		return sysResult{ret: int64(n), errno: errno}
	})
	return int(r.ret), r.errno
}

// Accept4 is accept with flags (the flags are advisory in the virtual
// environment — all program-side sockets are non-blocking already).
func (t *Thread) Accept4(fd int, flags int) (int, env.Errno) {
	r := t.syscall(env.SysAccept4, fd, func() sysResult {
		nfd, errno := t.rt.world.Accept(fd)
		return sysResult{ret: int64(nfd), errno: errno}
	})
	return int(r.ret), r.errno
}
