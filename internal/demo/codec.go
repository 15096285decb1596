// The record codec both containers share: the v1 sections (demo.go) and
// the v2 chunks (stream.go, recover.go) carry the QUEUE first-tick entries
// and the SIGNAL, ASYNC and SYSCALL records in one wire shape each, a
// uvarint count followed by the records, so one encoder and one decoder
// per record type serve both.
package demo

import (
	"encoding/binary"
	"fmt"

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
// The first error sticks and turns every later read into a no-op. Counts
// are never pre-allocated from claimed values: every record consumes at
// least one byte, so a corrupt count runs out of input instead of forcing
// a huge allocation.
type payCursor struct {
	pay []byte
	off int
	err error
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

func (c *payCursor) rleUint64s(what string) []uint64 {
	if c.err != nil {
		return nil
	}
	out, n, err := rle.DecodeUint64s(c.pay[c.off:])
	if err != nil {
		c.err = fmt.Errorf("%w: %s: %w", ErrCorrupt, what, err)
		return nil
	}
	c.off += n
	return out
}

func (c *payCursor) exhausted(what string) {
	if c.err == nil && c.off != len(c.pay) {
		c.err = fmt.Errorf("%w: %s has %d trailing payload bytes", ErrCorrupt, what, len(c.pay)-c.off)
	}
}

// The record decoders below read what the matching encoder wrote and
// append it to dst, returning dst unchanged (nil or not) for a count of
// zero. firstTicks allocates its map at the first pair when m is nil.

func (c *payCursor) firstTicks(m map[int32]uint64) map[int32]uint64 {
	n := c.uvarint("first-tick count")
	for i := uint64(0); i < n && c.err == nil; i++ {
		tid := c.uvarint("first-tick tid")
		first := c.uvarint("first tick")
		if c.err == nil {
			if m == nil {
				m = make(map[int32]uint64)
			}
			m[int32(uint32(tid))] = first
		}
	}
	return m
}

func (c *payCursor) signals(dst []SignalEvent) []SignalEvent {
	n := c.uvarint("signal count")
	for i := uint64(0); i < n && c.err == nil; i++ {
		tid := c.uvarint("signal tid")
		tick := c.uvarint("signal tick")
		sig := c.uvarint("signal value")
		if c.err == nil {
			dst = append(dst, SignalEvent{TID: int32(uint32(tid)), Tick: tick, Sig: int32(uint32(sig))})
		}
	}
	return dst
}

func (c *payCursor) asyncs(dst []AsyncEvent) []AsyncEvent {
	n := c.uvarint("async count")
	for i := uint64(0); i < n && c.err == nil; i++ {
		kind := AsyncKind(c.byteVal("async kind"))
		tick := c.uvarint("async tick")
		tid := c.uvarint("async tid")
		if c.err == nil {
			dst = append(dst, AsyncEvent{Kind: kind, Tick: tick, TID: int32(uint32(tid))})
		}
	}
	return dst
}

// syscalls cuts every record's Bufs from one backing array shared by the
// section, and the buffers' bytes from the unused tail of a byte array
// sized to the rest of the payload, which holds their encodings, so a
// section costs a few allocations, not two per record. A buffer that does
// not fit in the tail gets an array of its own, and an empty tail is
// refilled the same way, so no buffer is ever copied.
func (c *payCursor) syscalls(dst []SyscallRecord) []SyscallRecord {
	n := c.uvarint("syscall count")
	var bufs [][]byte
	var tail []byte
	for i := uint64(0); i < n && c.err == nil; i++ {
		sc := SyscallRecord{
			TID:   int32(uint32(c.uvarint("syscall tid"))),
			Kind:  uint16(c.uvarint("syscall kind")),
			Ret:   unzigzag(c.uvarint("syscall ret")),
			Errno: int32(uint32(c.uvarint("syscall errno"))),
		}
		nBufs := c.uvarint("syscall buf count")
		first := len(bufs)
		for b := uint64(0); b < nBufs && c.err == nil; b++ {
			if cap(tail) == 0 {
				tail = make([]byte, 0, len(c.pay)-c.off)
			}
			buf, k, err := rle.DecodeBytes(tail, c.pay[c.off:])
			if err != nil {
				c.err = fmt.Errorf("%w: syscall buf: %w", ErrCorrupt, err)
				break
			}
			c.off += k
			bufs = append(bufs, buf[:len(buf):len(buf)])
			tail = buf[len(buf):]
		}
		if c.err == nil {
			if len(bufs) > first {
				sc.Bufs = bufs[first:len(bufs):len(bufs)]
			}
			dst = append(dst, sc)
		}
	}
	return dst
}
