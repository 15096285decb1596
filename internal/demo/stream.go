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
//   - queue  — a contiguous segment of at most 1Mi QUEUE deltas (start
//     slot plus RLE deltas), new first-tick entries, and backfill patches
//     for already-flushed slots whose "next tick" only became known later.
//     A reader that never sees a patch keeps the slot's 0, which correctly
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
// The hot path (NoteSchedule/Add*) only appends to in-memory windows,
// and once they hold memWindow QUEUE slots encodes them into the spool.
// A self-re-arming timer cuts what they hold into the spool the same way
// every flush interval, under the same mutex, and writes the spool
// outside it. The spool and the write buffer swap at each flush, so the
// steady state allocates nothing.
//
// Spilling: the file does not exist until the recording first needs it.
// The header waits in memory until the first flush — timed, an explicit
// Flush, or the sealing Close — spills it: that flush creates the file
// and writes the header, then its batch, and from then on every flush
// appends as usual, so the bytes on disk do not depend on when the spill
// happened. A run that ends before its first timed flush and is
// discarded (Discard) never touches the disk at all: its one final batch
// is decoded from memory, behind the spool. A recorder without a file
// (NewRecorder) arms no timer and never spills, so Finish and Discard
// always take that path.
// Crash safety is unchanged by the delay, since a header-only file holds
// no recoverable prefix. Recovery of torn files is in recover.go.
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
	"slices"
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
	// appends one batch: queue chunks, an events chunk and a footer.
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

// batch is one cut of a recording: the QUEUE segment from slot qStart, the
// spooled first ticks and patches, the event records, and the footer's
// tick and output hash.
type batch struct {
	qStart     uint64
	deltas     []uint64
	firsts     []firstEntry
	patches    []patchEntry
	sigs       []SignalEvent
	asyncs     []AsyncEvent
	sys        []SyscallRecord
	tick, hash uint64
}

// appendHeader appends the recording's v2 header to dst.
func (r *Recorder) appendHeader(dst []byte) []byte {
	dst = append(append(slices.Grow(dst, v2HeaderLen), magic2...), version2, byte(r.strategy))
	dst = binary.LittleEndian.AppendUint64(dst, r.seed1)
	return binary.LittleEndian.AppendUint64(dst, r.seed2)
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
	r := NewRecorder(s, seed1, seed2)
	r.path, r.opts = path, opts
	// Publish the timer under flushMu: its first run, which re-arms it,
	// takes flushMu before it reads r.timer.
	r.flushMu.Lock()
	r.timer = time.AfterFunc(opts.FlushInterval, r.timedFlush)
	r.flushMu.Unlock()
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
func (r *Recorder) spill() error {
	osf, err := os.OpenFile(r.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	r.f = osf
	if WrapStreamFile != nil {
		r.f = WrapStreamFile(r.f)
	}
	_, err = r.f.Write(r.appendHeader(nil))
	return err
}

// latchLocked records the newest consistent cut point. Caller holds r.mu.
func (r *Recorder) latchLocked(tick uint64) {
	r.footTick = tick
	r.footHash = r.outputHash
	r.sigN = r.sigBase + len(r.signals)
	r.asyncN = r.asyncBase + len(r.asyncs)
	r.sysN = r.sysBase + len(r.syscalls)
}

// Spilled reports whether the recorder has created its file.
func (r *Recorder) Spilled() bool {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	return r.f != nil
}

// timedFlush drains the spool, spilling first if need be, and re-arms
// the timer. It stops for good once the recorder has ended or a write has
// failed.
func (r *Recorder) timedFlush() {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	if r.ended || r.werr != nil {
		return
	}
	if r.flushLocked(false, 0) == nil {
		r.timer.Reset(r.opts.FlushInterval)
	}
}

// Flush synchronously drains everything recorded up to the latest
// completed tick into the file, spilling first if need be, and ends with
// a footer candidate. Exposed for tests and for callers that want a
// durable cut at a known point. A recorder without a file does nothing.
func (r *Recorder) Flush() error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	return r.flushLocked(false, 0)
}

// Close stops the timed flush, writes the final flush batch (its footer
// carries finalTick and the final flag), spilling first if the recording
// never did, seals the file with one sync and closes it. The recorder
// must not be used after Close; a second Close returns the first one's
// result.
func (r *Recorder) Close(finalTick uint64) error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	if r.end() {
		if err := r.finishLocked(finalTick, true); r.werr == nil {
			r.werr = err
		}
	}
	return r.werr
}

// Discard ends a recording the caller does not keep and returns its demo,
// the one Close followed by ReadFile would give. A recording that never
// spilled, which includes every recording without a file, is decoded from
// memory as Finish does and never touches the disk. One that did is
// finished like Close but without the sync, read back and deleted. On
// success nothing is left at the path; on error Discard returns no demo
// and leaves any file that spilled in place. The recorder must not be
// used after Discard.
func (r *Recorder) Discard(finalTick uint64) (*Demo, error) {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	if !r.end() {
		return nil, errors.New("demo: Discard of an ended recorder")
	}
	if r.f == nil && r.werr == nil {
		return r.decodeLocked(finalTick)
	}
	if err := r.finishLocked(finalTick, false); err != nil {
		return nil, err
	}
	d, err := ReadFile(r.path)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(r.path); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeLocked encodes the header, the spool and one final batch straight
// from the windows, without cutting them, and decodes the bytes with
// DecodeStream, as ReadFile would decode the file. Caller holds flushMu,
// and the recording has not spilled.
func (r *Recorder) decodeLocked(finalTick uint64) (*Demo, error) {
	r.mu.Lock()
	b := r.pending(true, finalTick)
	r.enc = r.appendBatch(append(r.appendHeader(r.enc[:0]), r.spool...), &b, true)
	r.mu.Unlock()
	return DecodeStream(r.enc)
}

// end stops the timed flush and marks the recorder ended, reporting
// whether it was still running. Caller holds flushMu, so a timed flush
// that fired concurrently finds ended set and writes nothing.
func (r *Recorder) end() bool {
	if r.ended {
		return false
	}
	r.ended = true
	if r.timer != nil {
		r.timer.Stop()
	}
	return true
}

// finishLocked writes the final batch, seals the file with one sync if
// seal is set, and closes it. Caller holds flushMu.
func (r *Recorder) finishLocked(finalTick uint64, seal bool) error {
	err := r.flushLocked(true, finalTick)
	if r.f == nil {
		return err
	}
	if err == nil && seal {
		err = r.f.Sync()
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushLocked cuts one batch from the windows into the spool, takes the
// spool and appends it to the file, spilling first if the recording is
// still in memory. The cut encodes at most one memWindow of QUEUE slots
// under r.mu, as NoteSchedule's does. A recorder without a file writes
// nothing. Once a write, sync or spill fails, it writes nothing more and
// returns that first error. Caller holds flushMu.
func (r *Recorder) flushLocked(final bool, finalTick uint64) error {
	if r.werr != nil || r.path == "" {
		return r.werr
	}
	r.mu.Lock()
	b := r.pending(final, finalTick)
	if !final && len(r.spool) == 0 && b.tick == r.lastFooterTick &&
		len(b.deltas)+len(b.firsts)+len(b.patches)+len(b.sigs)+len(b.asyncs)+len(b.sys) == 0 {
		r.mu.Unlock()
		return nil // nothing new since the previous footer
	}
	r.lastFooterTick = b.tick
	r.spoolLocked(b, final)
	r.enc, r.spool = r.spool, r.enc[:0]
	r.mu.Unlock()
	if r.f == nil {
		r.werr = r.spill()
	}
	if r.werr == nil {
		_, r.werr = r.f.Write(r.enc)
	}
	if r.werr == nil && r.opts.Fsync && !final {
		r.werr = r.f.Sync()
	}
	return r.werr
}

// pending returns the batch a cut would take now: everything from the
// windows' bases up to the latch or, for the final cut (Close, Discard,
// Finish), everything recorded, with a footer tick of at least finalTick:
// no more events can arrive, so "now" is a consistent cut. Its slices
// alias the windows. Caller holds r.mu.
func (r *Recorder) pending(final bool, finalTick uint64) batch {
	b := batch{qStart: r.deltaBase, firsts: r.firsts, patches: r.patches, tick: r.footTick, hash: r.footHash}
	sigN, asyncN, sysN := r.sigN-r.sigBase, r.asyncN-r.asyncBase, r.sysN-r.sysBase
	if final {
		b.tick, b.hash = max(b.tick, finalTick), r.outputHash
		sigN, asyncN, sysN = len(r.signals), len(r.asyncs), len(r.syscalls)
	}
	// The queue segment is slots [deltaBase, tick). At a latch the window
	// is exactly that long (NoteSchedule extends and latches together),
	// but clamp defensively.
	if b.tick > r.deltaBase {
		b.deltas = r.queueDelta[:min(b.tick-r.deltaBase, uint64(len(r.queueDelta)))]
	}
	b.sigs, b.asyncs, b.sys = r.signals[:sigN], r.asyncs[:asyncN], r.syscalls[:sysN]
	return b
}

// shiftLocked drops b, a batch pending returned, from the windows and
// advances their bases past it. Caller holds r.mu.
func (r *Recorder) shiftLocked(b *batch) {
	r.queueDelta = r.queueDelta[:copy(r.queueDelta, r.queueDelta[len(b.deltas):])]
	r.deltaBase += uint64(len(b.deltas))
	r.firsts, r.patches = r.firsts[:0], r.patches[:0]
	r.signals = r.signals[:copy(r.signals, r.signals[len(b.sigs):])]
	r.asyncs = r.asyncs[:copy(r.asyncs, r.asyncs[len(b.asyncs):])]
	r.syscalls = r.syscalls[:copy(r.syscalls, r.syscalls[len(b.sys):])]
	r.sigBase += len(b.sigs)
	r.asyncBase += len(b.asyncs)
	r.sysBase += len(b.sys)
}

// appendBatch encodes b as one chunk batch, [queue...][events][footer],
// and appends it to dst. The QUEUE segment goes into chunks of at most
// rle.DecodeFloor deltas, so every chunk decodes however long one thread
// runs alone; the first carries the batch's first ticks and patches, and
// a batch with no QUEUE entries has no queue chunk. Caller holds r.mu.
func (r *Recorder) appendBatch(dst []byte, b *batch, final bool) []byte {
	firsts, patches := b.firsts, b.patches
	for at := 0; at < len(b.deltas) || len(firsts)+len(patches) > 0; {
		end := min(at+rle.DecodeFloor, len(b.deltas))
		r.pay = binary.AppendUvarint(r.pay[:0], b.qStart+uint64(at))
		r.pay = rle.AppendUint64s(r.pay, b.deltas[at:end])
		r.pay = appendFirsts(r.pay, firsts)
		r.pay = binary.AppendUvarint(r.pay, uint64(len(patches)))
		for _, pe := range patches {
			r.pay = binary.AppendUvarint(r.pay, pe.slot)
			r.pay = binary.AppendUvarint(r.pay, pe.delta)
		}
		dst = appendChunk(dst, chunkQueue, r.pay)
		at, firsts, patches = end, nil, nil
	}
	if len(b.sigs)+len(b.asyncs)+len(b.sys) > 0 {
		r.pay = appendSignals(r.pay[:0], b.sigs)
		r.pay = appendAsyncs(r.pay, b.asyncs)
		r.pay = appendSyscalls(r.pay, b.sys)
		dst = appendChunk(dst, chunkEvents, r.pay)
	}
	var flags byte
	if final {
		flags = footerFinal
	}
	r.pay = binary.AppendUvarint(append(r.pay[:0], flags), b.tick)
	r.pay = binary.LittleEndian.AppendUint64(r.pay, b.hash)
	return appendChunk(dst, chunkFooter, r.pay)
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
