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
//     previous flush, written by the record codec the v1 sections use
//     (codec.go).
//   - footer — a candidate end-of-recording marker: FinalTick, output
//     hash, and a "final" flag set only by Close or Discard. Every flush
//     batch ends with one, so any prefix of the file that ends at an
//     intact footer is a complete, replayable recording.
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
// self-re-arming timer drains the windows into encoded chunks every flush
// interval, double-buffering through reused scratch slices so the steady
// state allocates nothing.
//
// Spilling: the file does not exist until the recording first needs it.
// The header waits in memory until the first flush — timed, an explicit
// Flush, or the sealing Close — spills it: that flush creates the file
// and writes the header, then its batch, and from then on every flush
// appends as usual, so the bytes on disk do not depend on when the spill
// happened. A run that ends before its first timed flush and is
// discarded (Discard) never touches the disk at all: its one final batch
// is decoded from memory. Crash safety is unchanged by the delay, since
// a header-only file holds no recoverable prefix. Recovery of torn files
// is in recover.go.
//
//tsanrec:external host-side recording infrastructure: the timed flush drains spools on a wall-clock timer outside the controlled scheduler
package demo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
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

// defaultFlushInterval is how often the timed flush drains the spool when
// StreamOptions does not say otherwise. Small enough that a
// killed process loses at most a few tens of milliseconds of execution.
const defaultFlushInterval = 25 * time.Millisecond

// StreamOptions configures a streaming recorder.
type StreamOptions struct {
	// FlushInterval is the timed flush period (0 = 25ms). Each flush
	// appends at most one queue chunk, one events chunk and one footer.
	FlushInterval time.Duration
	// Fsync syncs the file after every non-final flush batch, extending
	// crash safety from process death to power failure. Off by default:
	// the page cache survives SIGKILL. Close seals the finished file with
	// one sync either way; Discard, for recordings the caller does not
	// keep, never syncs.
	Fsync bool
}

// StreamFile is the stream writer's view of its output file. *os.File
// implements it.
type StreamFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// WrapStreamFile, when non-nil, wraps every file the recorder creates
// when it spills, before the header is written. It is the stream writer's
// fault seam: tests set it to count syncs and files and to inject write
// and sync errors. Nothing outside tests sets it.
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
// and the spools are guarded by the Recorder's mutex; the file, the timer
// and the scratch and encode buffers belong to whoever is inside flushMu
// (the timed flush, Flush callers, Close or Discard).
type streamState struct {
	path string
	opts StreamOptions
	hdr  []byte // the v2 header, written when the recording spills

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

	flushMu sync.Mutex
	// f is nil until the recording spills.
	f StreamFile
	// timer runs the timed flush; it re-arms itself after each one.
	timer *time.Timer
	// werr is the first write, sync or spill error. It is sticky: nothing
	// more is written, and Flush, Close and Discard report it.
	werr error
	// ended is set by Close or Discard; closeErr is Close's result.
	ended    bool
	closeErr error

	// Double buffers for cutting and encoding a batch.
	enc            []byte
	pay            []byte
	scratchDeltas  []uint64
	scratchFirsts  []firstEntry
	scratchPatches []patchEntry
	scratchSigs    []SignalEvent
	scratchAsyncs  []AsyncEvent
	scratchSys     []SyscallRecord
	lastFooterTick uint64
}

// NewStreamingRecorder returns a Recorder that spools every stream to an
// append-only v2 container at path as the run executes. It checks that
// path's directory exists and removes any file a previous run left at
// path, but creates the file only when the recording spills, at its first
// flush; a timed flush runs every FlushInterval from now on. The caller
// must end the recorder with Close, which writes the final footer and
// seals the file, or with Discard. The demo of a closed run is read back
// with ReadFile; the demo of a crashed run is recovered with Recover.
func NewStreamingRecorder(path string, s Strategy, seed1, seed2 uint64, opts StreamOptions) (*Recorder, error) {
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = defaultFlushInterval
	}
	if err := clearPath(path); err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, v2HeaderLen)
	hdr = append(hdr, magic2...)
	hdr = append(hdr, version2, byte(s))
	hdr = binary.LittleEndian.AppendUint64(hdr, seed1)
	hdr = binary.LittleEndian.AppendUint64(hdr, seed2)
	r := NewRecorder(s, seed1, seed2)
	st := &streamState{path: path, opts: opts, hdr: hdr}
	r.stream = st
	// Publish the timer under flushMu: its first run, which re-arms it,
	// takes flushMu before it reads st.timer.
	st.flushMu.Lock()
	st.timer = time.AfterFunc(opts.FlushInterval, r.timedFlush)
	st.flushMu.Unlock()
	return r, nil
}

// clearPath checks that path can take a recording: its directory exists
// and path is not a directory. A file already at path is removed, so a
// crash before the first spill leaves nothing there rather than an
// earlier run's recording.
func clearPath(path string) error {
	fi, err := os.Lstat(path)
	switch {
	case err == nil && fi.IsDir():
		return fmt.Errorf("demo: stream path %s is a directory", path)
	case err == nil:
		return os.Remove(path)
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	_, err = os.Stat(filepath.Dir(path))
	return err
}

// spill creates the file and writes the header into it. Caller holds
// flushMu.
func (st *streamState) spill() error {
	osf, err := os.OpenFile(st.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	st.f = osf
	if WrapStreamFile != nil {
		st.f = WrapStreamFile(st.f)
	}
	_, err = st.f.Write(st.hdr)
	return err
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

// Spilled reports whether a streaming recorder has created its file.
func (r *Recorder) Spilled() bool {
	st := r.stream
	st.flushMu.Lock()
	defer st.flushMu.Unlock()
	return st.f != nil
}

// timedFlush drains the spool, spilling first if need be, and re-arms
// the timer. It stops for good once the recorder has ended or a write has
// failed.
func (r *Recorder) timedFlush() {
	st := r.stream
	st.flushMu.Lock()
	defer st.flushMu.Unlock()
	if st.ended || st.werr != nil {
		return
	}
	if r.flushLocked(false, 0) == nil {
		st.timer.Reset(st.opts.FlushInterval)
	}
}

// Flush synchronously drains everything recorded up to the latest
// completed tick into the file, spilling first if need be, and ends with
// a footer candidate. Exposed for tests and for callers that want a
// durable cut at a known point.
func (r *Recorder) Flush() error {
	st := r.stream
	if st == nil {
		return nil
	}
	st.flushMu.Lock()
	defer st.flushMu.Unlock()
	return r.flushLocked(false, 0)
}

// Close stops the timed flush, writes the final flush batch (its footer
// carries finalTick and the final flag), spilling first if the recording
// never did, seals the file with one sync and closes it. The recorder
// must not be used after Close; a second Close returns the first one's
// result.
func (r *Recorder) Close(finalTick uint64) error {
	st := r.stream
	if st == nil {
		return nil
	}
	st.flushMu.Lock()
	defer st.flushMu.Unlock()
	if st.end() {
		st.closeErr = r.finishLocked(finalTick, true)
	}
	return st.closeErr
}

// Discard ends a recording the caller does not keep and returns its demo,
// the one Close followed by ReadFile would give. A recording that never
// spilled is decoded from memory and never touches the disk. One that
// did is finished like Close but without the sync, read back and
// deleted. On success nothing is left at the path; on error Discard
// returns no demo and leaves any file that spilled in place. Only
// streaming recorders have Discard, and they must not be used after it.
func (r *Recorder) Discard(finalTick uint64) (*Demo, error) {
	st := r.stream
	st.flushMu.Lock()
	defer st.flushMu.Unlock()
	if !st.end() {
		return nil, errors.New("demo: Discard of an ended stream recorder")
	}
	if st.f == nil && st.werr == nil {
		// The header and one final batch are the whole recording.
		st.enc = r.appendBatch(append(st.enc[:0], st.hdr...), true, finalTick)
		return DecodeStream(st.enc)
	}
	if err := r.finishLocked(finalTick, false); err != nil {
		return nil, err
	}
	d, err := ReadFile(st.path)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(st.path); err != nil {
		return nil, err
	}
	return d, nil
}

// end stops the timed flush and marks the recorder ended, reporting
// whether it was still running. Caller holds flushMu, so a timed flush
// that fired concurrently finds ended set and writes nothing.
func (st *streamState) end() bool {
	if st.ended {
		return false
	}
	st.ended = true
	st.timer.Stop()
	return true
}

// finishLocked writes the final batch, seals the file with one sync if
// seal is set, and closes it. Caller holds flushMu.
func (r *Recorder) finishLocked(finalTick uint64, seal bool) error {
	st := r.stream
	err := r.flushLocked(true, finalTick)
	if st.f == nil {
		return err
	}
	if err == nil && seal {
		err = st.f.Sync()
	}
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushLocked appends one chunk batch to the file, spilling first if the
// recording is still in memory. Once a write, sync or spill fails, it
// writes nothing more and returns that first error. Caller holds flushMu.
func (r *Recorder) flushLocked(final bool, finalTick uint64) error {
	st := r.stream
	if st.werr != nil {
		return st.werr
	}
	enc := r.appendBatch(st.enc[:0], final, finalTick)
	if enc == nil {
		return nil // nothing new since the previous footer
	}
	st.enc = enc
	if st.f == nil {
		st.werr = st.spill()
	}
	if st.werr == nil {
		_, st.werr = st.f.Write(st.enc)
	}
	if st.werr == nil && st.opts.Fsync && !final {
		st.werr = st.f.Sync()
	}
	return st.werr
}

// appendBatch cuts the spool at the current latch and appends one chunk
// batch, [queue][events][footer], to dst. It returns nil instead when a
// non-final cut finds nothing new since the previous footer. The cut
// itself runs under the recorder's mutex and only copies into reused
// scratch buffers; encoding happens outside it. Caller holds flushMu.
func (r *Recorder) appendBatch(dst []byte, final bool, finalTick uint64) []byte {
	st := r.stream
	r.mu.Lock()
	ft, fh := st.footTick, st.footHash
	sigN, asyncN, sysN := st.sigN, st.asyncN, st.sysN
	if final {
		// The final cut (Close, Discard) takes everything, not just the
		// latched prefix: no more events can arrive, so "now" is a
		// consistent cut.
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
		return nil
	}
	st.lastFooterTick = ft

	if haveQueue {
		st.pay = binary.AppendUvarint(st.pay[:0], qStart)
		st.pay = rle.AppendUint64s(st.pay, st.scratchDeltas)
		st.pay = appendFirsts(st.pay, st.scratchFirsts)
		st.pay = binary.AppendUvarint(st.pay, uint64(len(st.scratchPatches)))
		for _, pe := range st.scratchPatches {
			st.pay = binary.AppendUvarint(st.pay, pe.slot)
			st.pay = binary.AppendUvarint(st.pay, pe.delta)
		}
		dst = appendChunk(dst, chunkQueue, st.pay)
	}
	if haveEvents {
		st.pay = appendSignals(st.pay[:0], st.scratchSigs)
		st.pay = appendAsyncs(st.pay, st.scratchAsyncs)
		st.pay = appendSyscalls(st.pay, st.scratchSys)
		dst = appendChunk(dst, chunkEvents, st.pay)
	}
	st.pay = st.pay[:0]
	var flags byte
	if final {
		flags |= footerFinal
	}
	st.pay = append(st.pay, flags)
	st.pay = binary.AppendUvarint(st.pay, ft)
	st.pay = binary.LittleEndian.AppendUint64(st.pay, fh)
	return appendChunk(dst, chunkFooter, st.pay)
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
