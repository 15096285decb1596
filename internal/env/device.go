package env

import (
	"encoding/binary"
	"time"
)

// The display device models the closed, proprietary GPU driver that makes
// the SDL games of §5.4 hard to record and replay:
//
//   - Its ioctl results contain a session handle that is only valid for
//     the driver session that produced it, so results captured in one run
//     are meaningless to a later live driver (the reason "letting it run
//     natively during replay" is the only way to keep the display alive).
//   - Its state advances only on live calls: a swap issued without a live
//     init in the same session fails, so partially recording the ioctl
//     traffic desynchronises the replay.
//   - rr-model refuses device ioctls outright, reproducing rr's inability
//     to handle the game/display communication.
//
// DisplayPath is the device node path.
const DisplayPath = "/dev/gpu0"

// Display ioctl commands.
const (
	IoctlGLInit  uint32 = 0x4701 // out: 8-byte session handle
	IoctlGLSwap  uint32 = 0x4702 // in: 8-byte handle + framebuffer; ret: frame number
	IoctlGLVsync uint32 = 0x4703 // out: 8-byte nanoseconds until next vsync
	IoctlAudio   uint32 = 0x4704 // in: PCM chunk; ret: queued samples
)

type display struct {
	session uint64
	inited  bool
	frames  int64
	queued  int64
}

// Ioctl performs a device or socket control call. For the display device
// the semantics are described above; unknown fds or commands yield ENOTSUP.
// The returned buffer is the "out" data the kernel wrote.
func (w *World) Ioctl(fd int, cmd uint32, in []byte) ([]byte, int64, Errno) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, ok := w.fds[fd]
	if !ok || d.closed {
		return nil, -1, EBADF
	}
	if d.kind != FDDevice || d.dev == nil {
		return nil, -1, ENOTSUP
	}
	dev := d.dev
	switch cmd {
	case IoctlGLInit:
		// A fresh session handle every init: driver-session-local state
		// that cannot meaningfully be replayed from a log.
		dev.session = w.nextRandLocked() | 1
		dev.inited = true
		dev.frames = 0
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, dev.session)
		return out, 0, OK
	case IoctlGLSwap:
		if len(in) < 8 {
			return nil, -1, EINVAL
		}
		h := binary.LittleEndian.Uint64(in)
		if !dev.inited || h != dev.session {
			// Stale or missing handle: the driver rejects the frame.
			return nil, -1, EINVAL
		}
		dev.frames++
		return nil, dev.frames, OK
	case IoctlGLVsync:
		// Physical-time nondeterminism: nanoseconds to the next 60 Hz
		// vsync edge.
		const frame = int64(time.Second) / 60
		now := w.clockNanosLocked()
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(frame-now%frame))
		return out, 0, OK
	case IoctlAudio:
		dev.queued += int64(len(in))
		return nil, dev.queued, OK
	default:
		return nil, -1, ENOTSUP
	}
}

// DisplayFrames reports how many frames the live display has accepted
// (test/benchmark observability: a replay that mocked the display shows 0
// new frames; a sparse replay with live ioctl shows gameplay).
func (w *World) DisplayFrames() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.display == nil {
		return 0
	}
	return w.display.frames
}
