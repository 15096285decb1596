// Package demo implements the paper's "demo" files: the captured record of
// an execution's relevant nondeterminism that constrains a later replay.
//
// A demo is a set of constraint streams (§4 of the paper):
//
//   - QUEUE  — the queue strategy's thread interleaving: a map from thread
//     id to the first tick at which the thread is scheduled, plus an ordered
//     list of ticks consumed by threads as they leave critical sections,
//     run-length encoded (§4.2). The random strategy records nothing here;
//     its entire interleaving is the two PRNG seeds in the header.
//   - SIGNAL — asynchronous signals, each pinned to the tick of the
//     receiving thread's most recent Tick() (§4.3).
//   - SYSCALL — return value, errno and output buffers of each recorded
//     system call, RLE-compressed (§4.4).
//   - ASYNC  — asynchronous events (reschedules, signal wakeups, timer
//     wakeups) floated to the preceding Tick() (§4.5).
//
// A replay is "synchronised" while every constraint can be enforced; a
// constraint that cannot be enforced is a hard desynchronisation and aborts
// the replay with a *DesyncError.
package demo

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"repro/internal/atomicfile"
	"repro/internal/rle"
)

// Strategy identifies the scheduling strategy a demo was recorded under.
// Replay must use the same strategy.
type Strategy uint8

// Scheduling strategies.
const (
	StrategyRandom Strategy = iota
	StrategyQueue
	StrategyPCT
	StrategyDelay
)

func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyQueue:
		return "queue"
	case StrategyPCT:
		return "pct"
	case StrategyDelay:
		return "delay"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// AsyncKind identifies an asynchronous event type (§4.5).
type AsyncKind uint8

// Asynchronous event kinds.
const (
	AsyncReschedule AsyncKind = iota
	AsyncSignalWakeup
	AsyncTimerWakeup
)

func (k AsyncKind) String() string {
	switch k {
	case AsyncReschedule:
		return "reschedule"
	case AsyncSignalWakeup:
		return "signal_wakeup"
	case AsyncTimerWakeup:
		return "timer_wakeup"
	default:
		return fmt.Sprintf("async(%d)", uint8(k))
	}
}

// SignalEvent records that thread TID received signal Sig having last
// completed a Tick() at logical tick Tick. The paper's SIGNAL file stores
// lines "tid tick sig".
type SignalEvent struct {
	TID  int32
	Tick uint64
	Sig  int32
}

// AsyncEvent records an asynchronous event floated to logical tick Tick.
// TID is the affected thread (the rescheduled-away-from or woken thread).
type AsyncEvent struct {
	Kind AsyncKind
	Tick uint64
	TID  int32
}

// SyscallRecord captures one recorded system call: the issuing thread, the
// call kind (an env.Sys* code), the return value, errno, and every output
// buffer the call filled.
type SyscallRecord struct {
	TID   int32
	Kind  uint16
	Ret   int64
	Errno int32
	Bufs  [][]byte
}

// Queue holds the queue strategy's interleaving record: FirstTick maps each
// thread id to the first tick at which it is scheduled, and Ticks is the
// ordered list of "next tick" values consumed by threads leaving critical
// sections (§4.2).
type Queue struct {
	FirstTick map[int32]uint64
	Ticks     []uint64
}

// Demo is a complete recorded execution.
type Demo struct {
	Strategy Strategy
	Seed1    uint64
	Seed2    uint64
	// FinalTick is the tick counter at the end of recording, used to
	// detect a replay that terminates early (soft desync indicator).
	FinalTick uint64
	Queue     Queue
	Signals   []SignalEvent
	Asyncs    []AsyncEvent
	Syscalls  []SyscallRecord
	// OutputHash is an optional hash of observable program output,
	// used to flag soft desynchronisation (§4: a replay may satisfy all
	// constraints yet produce output in a different order).
	OutputHash uint64
	// Truncated marks a demo whose streams are a valid prefix of the
	// execution, not the whole run: one recovered from a crashed streaming
	// recording (see Recover), or a queue demo the explore minimizer cut
	// short. Replay of a truncated demo stops cleanly at FinalTick instead
	// of treating the program running past the recording's end as a
	// desynchronisation.
	Truncated bool
}

// DesyncError reports a hard desynchronisation: a demo constraint that the
// replay could not enforce. Stream names the constraint stream; TID is the
// thread at which enforcement failed; Offset is the cursor position inside
// the stream (tick index for QUEUE, record index for SYSCALL/SIGNAL/ASYNC);
// Expected/Observed, when set, are the recorded expectation and what the
// replay actually saw — the diff desync forensics renders.
type DesyncError struct {
	Stream   string
	Tick     uint64
	TID      int32
	Offset   uint64
	Reason   string
	Expected string
	Observed string
}

func (e *DesyncError) Error() string {
	s := fmt.Sprintf("replay hard desynchronised at tick %d (%s stream, thread %d, cursor offset %d): %s",
		e.Tick, e.Stream, e.TID, e.Offset, e.Reason)
	if e.Expected != "" || e.Observed != "" {
		s += fmt.Sprintf(" [recorded: %s; observed: %s]", e.Expected, e.Observed)
	}
	return s
}

// ErrCorrupt is returned when a serialised demo cannot be parsed.
var ErrCorrupt = errors.New("demo: corrupt demo file")

const (
	magic   = "TSANREC1"
	version = 1
)

// Stream section tags in the serialised form.
const (
	secQueue   = 1
	secSignal  = 2
	secSyscall = 3
	secAsync   = 4
	secMeta    = 5
	secEnd     = 0xFF
)

// secMeta flag bits.
const metaTruncated = 1

// Encode serialises the demo to its binary on-disk form: the header, then
// one section per stream, each a tag byte and the shared record codec's
// encoding (codec.go).
func (d *Demo) Encode() []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, magic...)
	buf = append(buf, version, byte(d.Strategy))
	buf = binary.LittleEndian.AppendUint64(buf, d.Seed1)
	buf = binary.LittleEndian.AppendUint64(buf, d.Seed2)
	buf = binary.AppendUvarint(buf, d.FinalTick)
	buf = binary.LittleEndian.AppendUint64(buf, d.OutputHash)

	firsts := make([]firstEntry, 0, len(d.Queue.FirstTick))
	for tid, t := range d.Queue.FirstTick {
		firsts = append(firsts, firstEntry{tid: tid, tick: t})
	}
	slices.SortFunc(firsts, func(a, b firstEntry) int { return cmp.Compare(a.tid, b.tid) })
	buf = appendFirsts(append(buf, secQueue), firsts)
	buf = rle.AppendUint64s(buf, d.Queue.Ticks)
	buf = appendSignals(append(buf, secSignal), d.Signals)
	buf = appendSyscalls(append(buf, secSyscall), d.Syscalls)
	buf = appendAsyncs(append(buf, secAsync), d.Asyncs)

	// META section, only emitted when a flag is set: demos without flags
	// keep their historical byte-identical encoding.
	if d.Truncated {
		buf = append(buf, secMeta)
		buf = binary.AppendUvarint(buf, metaTruncated)
	}
	return append(buf, secEnd)
}

// Decode parses a demo from its binary form. A section's first-tick map
// and record slice decode non-nil even when empty, while an empty QUEUE
// tick list decodes nil (golden_test.go pins both). Each is allocated
// once, at the count its section claims, capped by what the rest of the
// file can hold.
func Decode(data []byte) (*Demo, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[len(magic)]; v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	d := &Demo{Strategy: Strategy(data[len(magic)+1])}
	c := &payCursor{pay: data, off: len(magic) + 2}
	d.Seed1 = c.fixed64("truncated seeds")
	d.Seed2 = c.fixed64("truncated seeds")
	d.FinalTick = c.uvarint("final tick")
	d.OutputHash = c.fixed64("truncated output hash")
	for c.err == nil && c.off < len(data) {
		switch sec := c.byteVal("section tag"); sec {
		case secQueue:
			if d.Queue.FirstTick = c.firstTicks(nil); d.Queue.FirstTick == nil {
				d.Queue.FirstTick = map[int32]uint64{}
			}
			d.Queue.Ticks = c.rleUint64s(nil, "queue ticks")
		case secSignal:
			d.Signals = c.signals([]SignalEvent{})
		case secSyscall:
			d.Syscalls = c.syscalls([]SyscallRecord{}, &bufArena{})
		case secAsync:
			d.Asyncs = c.asyncs([]AsyncEvent{})
		case secMeta:
			d.Truncated = c.uvarint("meta flags")&metaTruncated != 0
		case secEnd:
			return d, nil
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrCorrupt, sec)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return nil, fmt.Errorf("%w: missing end marker", ErrCorrupt)
}

// Size returns the encoded size in bytes, the metric compared against rr's
// trace sizes in §5.2.
func (d *Demo) Size() int { return len(d.Encode()) }

// SectionSizes returns the encoded size of each stream, used by the httpd
// and game experiments to attribute demo growth ("of which 6.5MB was for
// syscalls", §5.4).
func (d *Demo) SectionSizes() map[string]int {
	empty := &Demo{Strategy: d.Strategy}
	base := len(empty.Encode())

	onlyQueue := &Demo{Strategy: d.Strategy, Queue: d.Queue}
	onlySig := &Demo{Strategy: d.Strategy, Signals: d.Signals}
	onlySys := &Demo{Strategy: d.Strategy, Syscalls: d.Syscalls}
	onlyAsync := &Demo{Strategy: d.Strategy, Asyncs: d.Asyncs}
	return map[string]int{
		"header":  base,
		"queue":   len(onlyQueue.Encode()) - base,
		"signal":  len(onlySig.Encode()) - base,
		"syscall": len(onlySys.Encode()) - base,
		"async":   len(onlyAsync.Encode()) - base,
	}
}

// WriteFile serialises the demo to path. The write is atomic (temp file +
// fsync + rename): a crash mid-write leaves the previous file intact
// instead of a torn demo that ReadFile rejects.
func (d *Demo) WriteFile(path string) error {
	return atomicfile.WriteFile(path, d.Encode(), 0o644)
}

// WriteFile serialises d to path. It is the package-level spelling of
// (*Demo).WriteFile, mirroring ReadFile so drivers read and write demos
// without touching Encode/Decode or the os package.
func WriteFile(path string, d *Demo) error {
	return d.WriteFile(path)
}

// ReadFile loads a demo from path, accepting both the v1 single-blob form
// and the v2 streamed container (which must be complete; use Recover for
// files a crash tore).
func ReadFile(path string) (*Demo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= len(magic2) && string(data[:len(magic2)]) == magic2 {
		return DecodeStream(data)
	}
	return Decode(data)
}

// Clone returns a deep copy of the demo: mutating the copy's streams (as
// the minimizer does when it truncates candidates) leaves the original
// untouched. Syscall output buffers are copied too, since replay hands
// them to the application.
func (d *Demo) Clone() *Demo {
	c := *d
	if d.Queue.FirstTick != nil {
		c.Queue.FirstTick = make(map[int32]uint64, len(d.Queue.FirstTick))
		for tid, t := range d.Queue.FirstTick {
			c.Queue.FirstTick[tid] = t
		}
	}
	c.Queue.Ticks = append([]uint64(nil), d.Queue.Ticks...)
	c.Signals = append([]SignalEvent(nil), d.Signals...)
	c.Asyncs = append([]AsyncEvent(nil), d.Asyncs...)
	c.Syscalls = append([]SyscallRecord(nil), d.Syscalls...)
	for i := range c.Syscalls {
		bufs := c.Syscalls[i].Bufs
		c.Syscalls[i].Bufs = make([][]byte, len(bufs))
		for j, b := range bufs {
			c.Syscalls[i].Bufs[j] = append([]byte(nil), b...)
		}
	}
	return &c
}
