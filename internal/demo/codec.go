// The record codec both containers share: the v1 sections (demo.go) and
// the v2 chunks (stream.go, recover.go) carry the QUEUE first-tick entries
// and the SIGNAL, ASYNC and SYSCALL records in one wire shape each, a
// uvarint count followed by the records, so one encoder and one decoder
// per record type serve both.
package demo

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/rle"
)

// appendFirsts appends count-prefixed (tid, first tick) pairs.
func appendFirsts(b []byte, firsts []firstEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(firsts)))
	for _, fe := range firsts {
		b = binary.AppendUvarint(b, uint64(uint32(fe.tid)))
		b = binary.AppendUvarint(b, fe.tick)
	}
	return b
}

// appendSignals appends count-prefixed (tid, tick, sig) SIGNAL records.
func appendSignals(b []byte, sigs []SignalEvent) []byte {
	b = binary.AppendUvarint(b, uint64(len(sigs)))
	for _, s := range sigs {
		b = binary.AppendUvarint(b, uint64(uint32(s.TID)))
		b = binary.AppendUvarint(b, s.Tick)
		b = binary.AppendUvarint(b, uint64(uint32(s.Sig)))
	}
	return b
}

// appendAsyncs appends count-prefixed (kind byte, tick, tid) ASYNC records.
func appendAsyncs(b []byte, as []AsyncEvent) []byte {
	b = binary.AppendUvarint(b, uint64(len(as)))
	for _, a := range as {
		b = append(b, byte(a.Kind))
		b = binary.AppendUvarint(b, a.Tick)
		b = binary.AppendUvarint(b, uint64(uint32(a.TID)))
	}
	return b
}

// appendSyscalls appends count-prefixed SYSCALL records: tid, kind,
// zigzag return value, errno, then the count-prefixed RLE output buffers.
func appendSyscalls(b []byte, scs []SyscallRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(scs)))
	for _, sc := range scs {
		b = binary.AppendUvarint(b, uint64(uint32(sc.TID)))
		b = binary.AppendUvarint(b, uint64(sc.Kind))
		b = binary.AppendUvarint(b, zigzag(sc.Ret))
		b = binary.AppendUvarint(b, uint64(uint32(sc.Errno)))
		b = binary.AppendUvarint(b, uint64(len(sc.Bufs)))
		for _, buf := range sc.Bufs {
			b = rle.AppendBytes(b, buf)
		}
	}
	return b
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// payCursor walks encoded bytes: a v2 chunk payload, or a whole v1 file.
// The first error sticks and turns every later read into a no-op.
//
// The record decoders below size their arrays once, from counts that
// cannot outrun their input. A v1 section holds a whole stream, so its
// decoder grows the array by the section's count, capped by room. A v2
// stream spreads each record type over many chunks, so buildV2 first runs
// the decoders over every chunk with counting set, which parses every
// record and only adds it to n, and then sizes each array at the total;
// the filling pass finds room for every record already made.
type payCursor struct {
	pay      []byte
	off      int
	err      error
	counting bool
	n        recordCounts
}

// recordCounts is what a counting pass found: the records of each type and
// the syscall buffers with their decoded bytes.
type recordCounts struct {
	ticks, firsts, sigs, asyncs, sys, bufs, bufBytes int
}

// bufArena holds the arrays decoded syscall buffers are cut from: the
// backing array of every record's Bufs, and the unused tail of a byte
// array that holds the buffers' bytes.
type bufArena struct {
	bufs [][]byte
	tail []byte
	// sized marks an arena made at a counting pass's totals, whose tail
	// every buffer fits; otherwise an empty tail is refilled with an array
	// the size of the rest of the payload, which holds the buffers'
	// encodings, and a buffer that does not fit gets an array of its own.
	sized bool
}

// alloc makes the arrays a v2 demo's records fill, each at its counted
// total: d's record slices and first-tick map, the QUEUE ticks and the
// syscall buffers' arena. A record type with no records keeps a nil
// array, as in a decoder that never appended to it.
func (n *recordCounts) alloc(d *Demo) (ticks []uint64, a bufArena) {
	if n.ticks > 0 {
		ticks = make([]uint64, 0, n.ticks)
	}
	if n.firsts > 0 {
		d.Queue.FirstTick = make(map[int32]uint64, n.firsts)
	}
	if n.sigs > 0 {
		d.Signals = make([]SignalEvent, 0, n.sigs)
	}
	if n.asyncs > 0 {
		d.Asyncs = make([]AsyncEvent, 0, n.asyncs)
	}
	if n.sys > 0 {
		d.Syscalls = make([]SyscallRecord, 0, n.sys)
	}
	if n.bufs > 0 {
		a = bufArena{bufs: make([][]byte, 0, n.bufs), tail: make([]byte, 0, n.bufBytes), sized: true}
	}
	return ticks, a
}

func (c *payCursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
}

func (c *payCursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.pay[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

func (c *payCursor) byteVal(what string) byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.pay) {
		c.fail(what)
		return 0
	}
	c.off++
	return c.pay[c.off-1]
}

func (c *payCursor) fixed64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.pay)-c.off < 8 {
		c.fail(what)
		return 0
	}
	c.off += 8
	return binary.LittleEndian.Uint64(c.pay[c.off-8:])
}

// room caps a claimed count of records, each at least size bytes long, at
// what the rest of the payload can hold. It sizes an array, never a loop:
// a corrupt count then allocates no more than its input could back, and
// the loop reading the records runs out of input.
func (c *payCursor) room(n uint64, size int) int {
	return int(min(n, uint64(len(c.pay)-c.off)/uint64(size)))
}

// rleUint64s appends the RLE stream at the cursor to dst; a counting pass
// only counts its values.
func (c *payCursor) rleUint64s(dst []uint64, what string) []uint64 {
	if c.err != nil {
		return dst
	}
	var total, k int
	var err error
	if c.counting {
		total, k, err = rle.CountUint64s(c.pay[c.off:])
		c.n.ticks += total
	} else {
		dst, k, err = rle.DecodeUint64s(dst, c.pay[c.off:])
	}
	if err != nil {
		c.err = fmt.Errorf("%w: %s: %w", ErrCorrupt, what, err)
	}
	c.off += k
	return dst
}

func (c *payCursor) exhausted(what string) {
	if c.err == nil && c.off != len(c.pay) {
		c.err = fmt.Errorf("%w: %s has %d trailing payload bytes", ErrCorrupt, what, len(c.pay)-c.off)
	}
}

// The record decoders below read what the matching encoder wrote and
// append it to dst, returning dst unchanged (nil or not) for a count of
// zero; a counting pass appends nothing. firstTicks makes its map when m
// is nil and the count is not zero.

func (c *payCursor) firstTicks(m map[int32]uint64) map[int32]uint64 {
	n := c.uvarint("first-tick count")
	switch {
	case c.counting:
		c.n.firsts += int(n)
	case m == nil && n > 0:
		m = make(map[int32]uint64, c.room(n, 2))
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		tid := c.uvarint("first-tick tid")
		first := c.uvarint("first tick")
		if c.err == nil && !c.counting {
			m[int32(uint32(tid))] = first
		}
	}
	return m
}

func (c *payCursor) signals(dst []SignalEvent) []SignalEvent {
	n := c.uvarint("signal count")
	if c.counting {
		c.n.sigs += int(n)
	} else {
		dst = slices.Grow(dst, c.room(n, 3))
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		tid := c.uvarint("signal tid")
		tick := c.uvarint("signal tick")
		sig := c.uvarint("signal value")
		if c.err == nil && !c.counting {
			dst = append(dst, SignalEvent{TID: int32(uint32(tid)), Tick: tick, Sig: int32(uint32(sig))})
		}
	}
	return dst
}

func (c *payCursor) asyncs(dst []AsyncEvent) []AsyncEvent {
	n := c.uvarint("async count")
	if c.counting {
		c.n.asyncs += int(n)
	} else {
		dst = slices.Grow(dst, c.room(n, 3))
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		kind := AsyncKind(c.byteVal("async kind"))
		tick := c.uvarint("async tick")
		tid := c.uvarint("async tid")
		if c.err == nil && !c.counting {
			dst = append(dst, AsyncEvent{Kind: kind, Tick: tick, TID: int32(uint32(tid))})
		}
	}
	return dst
}

// syscalls cuts every record's Bufs from a's backing array, and the
// buffers' bytes from its tail, so a demo's syscall buffers cost a few
// allocations, not two per record, and no buffer is ever copied.
func (c *payCursor) syscalls(dst []SyscallRecord, a *bufArena) []SyscallRecord {
	n := c.uvarint("syscall count")
	if c.counting {
		c.n.sys += int(n)
	} else {
		dst = slices.Grow(dst, c.room(n, 5))
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		sc := SyscallRecord{
			TID:   int32(uint32(c.uvarint("syscall tid"))),
			Kind:  uint16(c.uvarint("syscall kind")),
			Ret:   unzigzag(c.uvarint("syscall ret")),
			Errno: int32(uint32(c.uvarint("syscall errno"))),
		}
		nBufs := c.uvarint("syscall buf count")
		first := len(a.bufs)
		for b := uint64(0); b < nBufs && c.err == nil; b++ {
			if c.counting {
				total, k, err := rle.CountBytes(c.pay[c.off:])
				if err != nil {
					c.err = fmt.Errorf("%w: syscall buf: %w", ErrCorrupt, err)
					break
				}
				c.off += k
				c.n.bufs++
				c.n.bufBytes += total
				continue
			}
			if cap(a.tail) == 0 && !a.sized {
				a.tail = make([]byte, 0, len(c.pay)-c.off)
			}
			buf, k, err := rle.DecodeBytes(a.tail, c.pay[c.off:])
			if err != nil {
				c.err = fmt.Errorf("%w: syscall buf: %w", ErrCorrupt, err)
				break
			}
			c.off += k
			a.bufs = append(a.bufs, buf[:len(buf):len(buf)])
			a.tail = buf[len(buf):]
		}
		if c.err == nil && !c.counting {
			if len(a.bufs) > first {
				sc.Bufs = a.bufs[first:len(a.bufs):len(a.bufs)]
			}
			dst = append(dst, sc)
		}
	}
	return dst
}
