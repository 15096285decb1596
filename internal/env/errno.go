// Package env implements the virtual environment the programs under test
// run against: an in-process "operating system" with sockets, pipes, files,
// a wall clock, asynchronous signals, and an opaque display device.
//
// The environment plays the role of the real Linux kernel and external
// world in the paper's evaluation. The program under test calls the
// fd-based syscall surface (Socket/Bind/Accept/Recv/Send/Poll/...) through
// the runtime's instrumented wrappers, which decide per the sparse policy
// whether to record results; external-world goroutines (load generators,
// game servers, human-input injectors) use the External* surface and run
// outside the controlled scheduler, supplying genuine nondeterminism
// during recording.
//
// Program-side calls are non-blocking (EAGAIN/zero-timeout semantics) so a
// thread never blocks the controlled scheduler inside a critical section;
// applications poll, exactly as the paper's Figure 2 client does.
package env

// Errno is the virtual errno returned by environment syscalls.
type Errno int32

// Errno values used by the virtual environment.
const (
	OK Errno = iota
	EAGAIN
	EBADF
	EINVAL
	ECONNRESET
	ENOENT
	EBUSY
	ENOTSUP
	EPIPE
	EADDRINUSE
	ECONNREFUSED
	EISCONN
	ENOTCONN
	EMSGSIZE
)

func (e Errno) Error() string { return e.String() }

func (e Errno) String() string {
	switch e {
	case OK:
		return "OK"
	case EAGAIN:
		return "EAGAIN"
	case EBADF:
		return "EBADF"
	case EINVAL:
		return "EINVAL"
	case ECONNRESET:
		return "ECONNRESET"
	case ENOENT:
		return "ENOENT"
	case EBUSY:
		return "EBUSY"
	case ENOTSUP:
		return "ENOTSUP"
	case EPIPE:
		return "EPIPE"
	case EADDRINUSE:
		return "EADDRINUSE"
	case ECONNREFUSED:
		return "ECONNREFUSED"
	case EISCONN:
		return "EISCONN"
	case ENOTCONN:
		return "ENOTCONN"
	case EMSGSIZE:
		return "EMSGSIZE"
	default:
		return "E?"
	}
}

// Sys identifies a virtual syscall kind; the codes appear in SYSCALL demo
// records. The set mirrors the syscalls tsan11rec supports (§4.4): read,
// write, recvmsg, recv, sendmsg, accept, accept4, clock_gettime, ioctl,
// select and bind, plus the poll workaround used for httpd (§5.2) and the
// socket bookkeeping calls they depend on.
type Sys uint16

// Virtual syscall kinds.
const (
	SysRead Sys = iota + 1
	SysWrite
	SysRecv
	SysRecvmsg
	SysSend
	SysSendmsg
	SysAccept
	SysAccept4
	SysClockGettime
	SysIoctl
	SysSelect
	SysBind
	SysPoll
	SysSocket
	SysListen
	SysConnect
	SysClose
	SysOpen
	SysPipe
	SysEpollCreate
	SysEpollCtl
	SysEpollWait
)

// sysNames is indexed by Sys. String runs on every instrumented syscall,
// so it reads a table rather than building a map.
var sysNames = [...]string{
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

func (s Sys) String() string {
	if int(s) < len(sysNames) && sysNames[s] != "" {
		return sysNames[s]
	}
	return "sys?"
}

// FDKind classifies a file descriptor; the sparse recording policy may
// discriminate on it (§4.4: read/write on plain files need not be
// recorded, but on IPC pipes they must).
type FDKind int

// File descriptor kinds.
const (
	FDInvalid FDKind = iota
	FDFile
	FDSocket
	FDListener
	FDPipeRead
	FDPipeWrite
	FDDevice
	FDEpoll
)

func (k FDKind) String() string {
	switch k {
	case FDFile:
		return "file"
	case FDSocket:
		return "socket"
	case FDListener:
		return "listener"
	case FDPipeRead:
		return "pipe-read"
	case FDPipeWrite:
		return "pipe-write"
	case FDDevice:
		return "device"
	case FDEpoll:
		return "epoll"
	default:
		return "invalid"
	}
}
