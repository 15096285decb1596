// Streaming demo writer: the v2 container (§4's constraint streams,
// re-framed for deployability).
//
// A v1 demo lives entirely in memory until one final WriteFile — so the
// execution you most want to replay, the one that crashes the process, is
// exactly the one whose demo is lost. The v2 container is append-only: a
// fixed header (magic, version, strategy, seeds) followed by
// self-delimiting chunks, each `type | uvarint length | payload | crc32`.
// Chunk types:
//
//   - queue  — a contiguous segment of the QUEUE delta stream (start slot
//     plus RLE deltas), new first-tick entries, and backfill patches for
//     already-flushed slots whose "next tick" only became known later. A
//     reader that never sees a patch keeps the slot's 0, which correctly
//     means "never scheduled again within that shorter prefix".
//   - events — the SIGNAL/ASYNC/SYSCALL records accumulated since the
//     previous flush, in the same wire shapes as the v1 sections.
//   - footer — a candidate end-of-recording marker: FinalTick, output
//     hash, and a "final" flag set only by Close or CloseUnsynced. Every
//     flush batch ends with one, so any prefix of the file that ends at
//     an intact footer is a complete, replayable recording.
//
// Consistency: the recorder latches (footer tick, output hash, per-stream
// counts) under its mutex at every completed tick — NoteSchedule for the
// queue strategy, NoteTick elsewhere. Everything the program does inside
// critical sections (syscall records, signal consumption, output emits)
// is recorded before that tick's latch, and everything after a latch at
// tick T only affects ticks > T, so a flush cut at a latch is an exact
// consistent prefix of the execution.
//
// The hot path (NoteSchedule/Add*) only appends to in-memory windows; a
// background goroutine drains the windows into encoded chunks on a timer,
// double-buffering through reused scratch slices so the steady state
// allocates nothing. Recovery of torn files is in recover.go.
//
//tsanrec:external host-side recording infrastructure: the flusher drains spools on a wall-clock timer outside the controlled scheduler
package demo

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/rle"
)

// v2 container constants.
const (
	magic2   = "TSANREC2"
	version2 = 2

	chunkQueue  = 1
	chunkEvents = 2
	chunkFooter = 3

	// footerFinal marks the footer Close writes; its absence from the
	// last intact footer tells Recover the file is a truncated prefix.
	footerFinal = 1

	v2HeaderLen = len(magic2) + 2 + 16 // magic, version, strategy, two seeds
)

// defaultFlushInterval is how often the background flusher drains the
// spool when StreamOptions does not say otherwise. Small enough that a
// killed process loses at most a few tens of milliseconds of execution.
const defaultFlushInterval = 25 * time.Millisecond

// StreamOptions configures a streaming recorder.
type StreamOptions struct {
	// FlushInterval is the background flush period (0 = 25ms). Each flush
	// appends at most one queue chunk, one events chunk and one footer.
	FlushInterval time.Duration
	// Fsync syncs the file after every background flush batch, extending
	// crash safety from process death to power failure. Off by default:
	// the page cache survives SIGKILL. Close seals the finished file with
	// one sync either way; CloseUnsynced, for recordings the caller will
	// delete, never syncs.
	Fsync bool
}

// StreamFile is the stream writer's view of its output file. *os.File
// implements it.
type StreamFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// WrapStreamFile, when non-nil, wraps every file NewStreamingRecorder
// opens, before the header is written. It is the stream writer's fault
// seam: tests set it to count syncs and to inject write and sync errors.
// Nothing outside tests sets it.
var WrapStreamFile func(StreamFile) StreamFile

// firstEntry is a spooled QUEUE first-tick record.
type firstEntry struct {
	tid  int32
	tick uint64
}

// patchEntry is a spooled backfill write to an already-flushed QUEUE slot.
type patchEntry struct {
	slot  uint64 // absolute 0-based delta slot (tick-1)
	delta uint64
}

// streamState is the streaming side of a Recorder. The latched cut state
// and the spools are guarded by the Recorder's mutex; the scratch and
// encode buffers belong to whoever is inside flushMu (the background
// flusher, Flush callers, or Close).
type streamState struct {
	f    StreamFile
	path string
	opts StreamOptions

	// Latch: the newest point at which the file may be cut and still be
	// a consistent prefix. Updated under Recorder.mu at every tick.
	footTick uint64
	footHash uint64
	sigN     int // absolute SIGNAL count at the latch
	asyncN   int
	sysN     int

	// Absolute base offsets of the in-memory windows: entries below the
	// base are already on disk.
	deltaBase uint64
	sigBase   int
	asyncBase int
	sysBase   int

	// Spools feeding the next queue chunk.
	firsts  []firstEntry
	patches []patchEntry

	// werr is the first write error; once set the flusher has given up
	// and Close reports it.
	werr error

	// Flusher-owned double buffers, guarded by flushMu.
	flushMu        sync.Mutex
	enc            []byte
	pay            []byte
	scratchDeltas  []uint64
	scratchFirsts  []firstEntry
	scratchPatches []patchEntry
	scratchSigs    []SignalEvent
	scratchAsyncs  []AsyncEvent
	scratchSys     []SyscallRecord
	lastFooterTick uint64

	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewStreamingRecorder returns a Recorder that spools every stream to an
// append-only v2 container at path as the run executes. The file is
// created (truncating any previous content) and a background flusher is
// started; the caller must Close the recorder to write the final footer.
// The demo of the finished run is read back with ReadFile; the demo of a
// crashed run is recovered with Recover.
func NewStreamingRecorder(path string, s Strategy, seed1, seed2 uint64, opts StreamOptions) (*Recorder, error) {
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = defaultFlushInterval
	}
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var f StreamFile = osf
	if WrapStreamFile != nil {
		f = WrapStreamFile(f)
	}
	hdr := make([]byte, 0, v2HeaderLen)
	hdr = append(hdr, magic2...)
	hdr = append(hdr, version2, byte(s))
	hdr = binary.LittleEndian.AppendUint64(hdr, seed1)
	hdr = binary.LittleEndian.AppendUint64(hdr, seed2)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	r := NewRecorder(s, seed1, seed2)
	r.stream = &streamState{
		f:    f,
		path: path,
		opts: opts,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.flushLoop()
	return r, nil
}

// Streaming reports whether the recorder spools to disk.
func (r *Recorder) Streaming() bool { return r.stream != nil }

// StreamPath returns the streaming recorder's file path ("" for in-memory
// recorders).
func (r *Recorder) StreamPath() string {
	if r.stream == nil {
		return ""
	}
	return r.stream.path
}

// latchLocked records the newest consistent cut point. Caller holds r.mu.
func (r *Recorder) latchLocked(tick uint64) {
	st := r.stream
	st.footTick = tick
	st.footHash = r.outputHash
	st.sigN = st.sigBase + len(r.signals)
	st.asyncN = st.asyncBase + len(r.asyncs)
	st.sysN = st.sysBase + len(r.syscalls)
}

// flushLoop is the background flusher: drain the spool every interval
// until Close stops it. A write error is sticky — the loop exits and
// Close surfaces the error.
func (r *Recorder) flushLoop() {
	st := r.stream
	defer close(st.done)
	tk := time.NewTicker(st.opts.FlushInterval)
	defer tk.Stop()
	for {
		select {
		case <-st.quit:
			return
		case <-tk.C:
		}
		if err := r.flushOnce(false, 0); err != nil {
			r.mu.Lock()
			if st.werr == nil {
				st.werr = err
			}
			r.mu.Unlock()
			return
		}
	}
}

// Flush synchronously drains everything recorded up to the latest
// completed tick into the file, ending with a footer candidate. Exposed
// for tests and for callers that want a durable cut at a known point.
func (r *Recorder) Flush() error {
	st := r.stream
	if st == nil {
		return nil
	}
	r.mu.Lock()
	werr := st.werr
	r.mu.Unlock()
	if werr != nil {
		return werr
	}
	return r.flushOnce(false, 0)
}

// Close stops the background flusher, writes the final flush batch (its
// footer carries finalTick and the final flag), seals the file with one
// sync and closes it. The recorder must not be used after Close.
func (r *Recorder) Close(finalTick uint64) error { return r.close(finalTick, true) }

// CloseUnsynced is Close without the sync, for a recording the caller
// reads back and deletes: the file is complete and replayable, but only
// the page cache holds it. Whichever of Close and CloseUnsynced runs
// first decides; a later call returns its result.
func (r *Recorder) CloseUnsynced(finalTick uint64) error { return r.close(finalTick, false) }

func (r *Recorder) close(finalTick uint64, seal bool) error {
	st := r.stream
	if st == nil {
		return nil
	}
	st.closeOnce.Do(func() {
		close(st.quit)
		<-st.done
		err := r.flushOnce(true, finalTick)
		r.mu.Lock()
		if err == nil {
			err = st.werr
		}
		r.mu.Unlock()
		if seal {
			if serr := st.f.Sync(); err == nil {
				err = serr
			}
		}
		if cerr := st.f.Close(); err == nil {
			err = cerr
		}
		st.closeErr = err
	})
	return st.closeErr
}

// flushOnce cuts the spool at the current latch and appends one chunk
// batch: [queue][events][footer]. The cut itself runs under the
// recorder's mutex and only copies into reused scratch buffers; encoding
// and the file write happen outside it.
func (r *Recorder) flushOnce(final bool, finalTick uint64) error {
	st := r.stream
	st.flushMu.Lock()
	defer st.flushMu.Unlock()

	r.mu.Lock()
	ft, fh := st.footTick, st.footHash
	sigN, asyncN, sysN := st.sigN, st.asyncN, st.sysN
	if final {
		// Close flushes everything, not just the latched prefix: no more
		// events can arrive, so "now" is a consistent cut.
		if finalTick > ft {
			ft = finalTick
		}
		fh = r.outputHash
		sigN = st.sigBase + len(r.signals)
		asyncN = st.asyncBase + len(r.asyncs)
		sysN = st.sysBase + len(r.syscalls)
	}
	// Queue segment: slots [deltaBase, ft). At a latch the window length
	// is exactly ft-deltaBase (NoteSchedule extends and latches together),
	// but clamp defensively.
	qStart := st.deltaBase
	nd := 0
	if r.strategy == StrategyQueue && ft > st.deltaBase {
		nd = int(ft - st.deltaBase)
		if nd > len(r.queueDelta) {
			nd = len(r.queueDelta)
		}
		st.scratchDeltas = append(st.scratchDeltas[:0], r.queueDelta[:nd]...)
		keep := copy(r.queueDelta, r.queueDelta[nd:])
		// Zero the vacated tail so future window extensions (which
		// reslice over it) see zeros, preserving the "unwritten slot
		// means never rescheduled" invariant.
		for i := keep; i < len(r.queueDelta); i++ {
			r.queueDelta[i] = 0
		}
		r.queueDelta = r.queueDelta[:keep]
		st.deltaBase += uint64(nd)
	}
	st.scratchFirsts = append(st.scratchFirsts[:0], st.firsts...)
	st.firsts = st.firsts[:0]
	st.scratchPatches = append(st.scratchPatches[:0], st.patches...)
	st.patches = st.patches[:0]
	cutSigs := sigN - st.sigBase
	st.scratchSigs = append(st.scratchSigs[:0], r.signals[:cutSigs]...)
	r.signals = r.signals[:copy(r.signals, r.signals[cutSigs:])]
	st.sigBase = sigN
	cutAsyncs := asyncN - st.asyncBase
	st.scratchAsyncs = append(st.scratchAsyncs[:0], r.asyncs[:cutAsyncs]...)
	r.asyncs = r.asyncs[:copy(r.asyncs, r.asyncs[cutAsyncs:])]
	st.asyncBase = asyncN
	cutSys := sysN - st.sysBase
	st.scratchSys = append(st.scratchSys[:0], r.syscalls[:cutSys]...)
	r.syscalls = r.syscalls[:copy(r.syscalls, r.syscalls[cutSys:])]
	st.sysBase = sysN
	r.mu.Unlock()

	haveQueue := nd > 0 || len(st.scratchFirsts) > 0 || len(st.scratchPatches) > 0
	haveEvents := len(st.scratchSigs) > 0 || len(st.scratchAsyncs) > 0 || len(st.scratchSys) > 0
	if !haveQueue && !haveEvents && ft == st.lastFooterTick && !final {
		return nil // nothing new since the previous footer
	}

	st.enc = st.enc[:0]
	if haveQueue {
		st.pay = st.pay[:0]
		st.pay = binary.AppendUvarint(st.pay, qStart)
		st.pay = rle.AppendUint64s(st.pay, st.scratchDeltas)
		st.pay = binary.AppendUvarint(st.pay, uint64(len(st.scratchFirsts)))
		for _, fe := range st.scratchFirsts {
			st.pay = binary.AppendUvarint(st.pay, uint64(uint32(fe.tid)))
			st.pay = binary.AppendUvarint(st.pay, fe.tick)
		}
		st.pay = binary.AppendUvarint(st.pay, uint64(len(st.scratchPatches)))
		for _, pe := range st.scratchPatches {
			st.pay = binary.AppendUvarint(st.pay, pe.slot)
			st.pay = binary.AppendUvarint(st.pay, pe.delta)
		}
		st.enc = appendChunk(st.enc, chunkQueue, st.pay)
	}
	if haveEvents {
		st.pay = st.pay[:0]
		st.pay = binary.AppendUvarint(st.pay, uint64(len(st.scratchSigs)))
		for _, s := range st.scratchSigs {
			st.pay = binary.AppendUvarint(st.pay, uint64(uint32(s.TID)))
			st.pay = binary.AppendUvarint(st.pay, s.Tick)
			st.pay = binary.AppendUvarint(st.pay, uint64(uint32(s.Sig)))
		}
		st.pay = binary.AppendUvarint(st.pay, uint64(len(st.scratchAsyncs)))
		for _, a := range st.scratchAsyncs {
			st.pay = append(st.pay, byte(a.Kind))
			st.pay = binary.AppendUvarint(st.pay, a.Tick)
			st.pay = binary.AppendUvarint(st.pay, uint64(uint32(a.TID)))
		}
		st.pay = binary.AppendUvarint(st.pay, uint64(len(st.scratchSys)))
		for _, sc := range st.scratchSys {
			st.pay = binary.AppendUvarint(st.pay, uint64(uint32(sc.TID)))
			st.pay = binary.AppendUvarint(st.pay, uint64(sc.Kind))
			st.pay = binary.AppendUvarint(st.pay, zigzag(sc.Ret))
			st.pay = binary.AppendUvarint(st.pay, uint64(uint32(sc.Errno)))
			st.pay = binary.AppendUvarint(st.pay, uint64(len(sc.Bufs)))
			for _, b := range sc.Bufs {
				st.pay = rle.AppendBytes(st.pay, b)
			}
		}
		st.enc = appendChunk(st.enc, chunkEvents, st.pay)
	}
	st.pay = st.pay[:0]
	var flags byte
	if final {
		flags |= footerFinal
	}
	st.pay = append(st.pay, flags)
	st.pay = binary.AppendUvarint(st.pay, ft)
	st.pay = binary.LittleEndian.AppendUint64(st.pay, fh)
	st.enc = appendChunk(st.enc, chunkFooter, st.pay)

	if _, err := st.f.Write(st.enc); err != nil {
		return err
	}
	st.lastFooterTick = ft
	if st.opts.Fsync && !final {
		return st.f.Sync()
	}
	return nil
}

// appendChunk frames one chunk: type byte, uvarint payload length, the
// payload, and a CRC32 (IEEE) of the payload. The CRC makes a torn tail
// detectable; the length makes every intact chunk self-delimiting.
func appendChunk(dst []byte, typ byte, pay []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(pay)))
	dst = append(dst, pay...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(pay))
}
