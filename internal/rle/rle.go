// Package rle implements the run-length encodings used by demo files.
//
// The paper applies "a simple run length encoding" both to the QUEUE
// strategy's tick stream (where one thread is often scheduled many times in
// succession) and to recorded syscall buffers (which are dominated by zero
// bytes and repeated payload fragments). Two coders are provided:
//
//   - Uint64 RLE: (value, count) pairs over a []uint64 stream, varint
//     encoded. Used for tick lists and first-tick maps.
//   - Byte RLE: a classic escape-free byte coder for syscall buffers.
package rle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorrupt is returned when an encoded stream cannot be decoded.
var ErrCorrupt = errors.New("rle: corrupt stream")

// AppendUint64s appends the run-length encoding of vals to dst and returns
// the extended slice. The encoding is a varint pair (value, runLength) per
// run, preceded by a varint run count.
func AppendUint64s(dst []byte, vals []uint64) []byte {
	runs := countRuns(vals)
	dst = binary.AppendUvarint(dst, uint64(runs))
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, vals[i])
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

func countRuns(vals []uint64) int {
	runs := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runs++
		i = j
	}
	return runs
}

// maxExpansion bounds how many decoded items one byte of a stream's
// canonical encoding may stand for, and DecodeFloor is the allowance every
// stream gets regardless of size. Together they cap a decoder's output at
// max(DecodeFloor, maxExpansion*n) items for an n-byte canonical encoding,
// and the decoders allocate only once a whole stream has been checked
// against that cap (CountUint64s, CountBytes), so a handful of corrupt
// bytes claiming a multi-GiB run is rejected without allocating. A stream
// of a few runs totalling over 1Mi items (a thread scheduled alone for
// that many ticks) exceeds the bound, so a writer that must be read back
// puts at most DecodeFloor items in one stream.
const (
	maxExpansion = 1 << 12
	DecodeFloor  = 1 << 20
)

// decodeLimit returns the maximum number of items a stream may decode to,
// given the length n of its canonical encoding: the bytes AppendUint64s or
// AppendBytes would write for the decoded values, with adjacent runs of
// one value merged. The decoders measure n as they check a stream, and
// never take it from the input, so bytes the canonical form drops
// (overlong varints, split runs, whatever follows the stream) cannot raise
// the limit, and whatever decodes re-encodes to a stream that decodes.
func decodeLimit(n int) uint64 {
	if lim := uint64(n) * maxExpansion; lim > DecodeFloor {
		return lim
	}
	return DecodeFloor
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// CountUint64s checks a stream produced by AppendUint64s without decoding
// it, returning how many values it holds and the number of bytes it spans.
// Every run is parsed and the total checked against decodeLimit, so a
// count it returns is backed by input: corrupt run counts cannot claim a
// huge total.
func CountUint64s(src []byte) (int, int, error) {
	runs, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: run count", ErrCorrupt)
	}
	// The canonical encoding is never longer than the input, so a total
	// past the input's limit fails before the stream is read to its end.
	limit := decodeLimit(len(src))
	off, total := n, uint64(0)
	canon, merged := 0, uint64(0)
	var rv, rn uint64 // the current merged run
	for r := uint64(0); r < runs; r++ {
		val, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, 0, fmt.Errorf("%w: run %d value", ErrCorrupt, r)
		}
		off += n
		cnt, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, 0, fmt.Errorf("%w: run %d count", ErrCorrupt, r)
		}
		off += n
		if cnt == 0 {
			return 0, 0, fmt.Errorf("%w: run %d has zero length", ErrCorrupt, r)
		}
		if cnt > limit || total+cnt > limit {
			return 0, 0, fmt.Errorf("%w: run %d claims %d values from %d input bytes", ErrCorrupt, r, cnt, len(src))
		}
		total += cnt
		if rn > 0 && val != rv {
			canon += uvarintLen(rv) + uvarintLen(rn)
			merged, rn = merged+1, 0
		}
		rv, rn = val, rn+cnt
	}
	if rn > 0 {
		canon += uvarintLen(rv) + uvarintLen(rn)
		merged++
	}
	if canon += uvarintLen(merged); total > decodeLimit(canon) {
		return 0, 0, fmt.Errorf("%w: %d values from a %d-byte canonical encoding", ErrCorrupt, total, canon)
	}
	return int(total), off, nil
}

// DecodeUint64s decodes a stream produced by AppendUint64s, appends the
// values to dst and returns the extended slice and the number of bytes
// consumed. The stream is checked in full by CountUint64s before dst
// grows, so a corrupt stream fails without materialising the runs before
// its fault, and dst grows at most once: not at all when the caller sized
// it. A stream of no values returns dst unchanged, nil or not.
func DecodeUint64s(dst []uint64, src []byte) ([]uint64, int, error) {
	total, _, err := CountUint64s(src)
	if err != nil {
		return nil, 0, err
	}
	dst, end := ExpandUint64s(slices.Grow(dst, total), src)
	return dst, end, nil
}

// ExpandUint64s is DecodeUint64s without the check, for a caller that has
// already run CountUint64s on src: it appends the stream's values to dst,
// which should have room for them, and returns the extended slice and the
// bytes consumed. On a stream CountUint64s rejects it may panic or return
// garbage.
func ExpandUint64s(dst []uint64, src []byte) ([]uint64, int) {
	runs, p := binary.Uvarint(src)
	for r := uint64(0); r < runs; r++ {
		val, k := binary.Uvarint(src[p:])
		p += k
		cnt, k := binary.Uvarint(src[p:])
		p += k
		for i := uint64(0); i < cnt; i++ {
			dst = append(dst, val)
		}
	}
	return dst, p
}

// AppendBytes appends the run-length encoding of data to dst. Runs of four
// or more identical bytes are encoded as (0xFF, byte, varint count);
// literal 0xFF bytes are escaped as a run of length one, so the decoder
// never misparses. Shorter runs are emitted verbatim. The encoded form is
// prefixed with a varint of the decoded length.
func AppendBytes(dst, data []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	for i := 0; i < len(data); {
		b := data[i]
		j := i + 1
		for j < len(data) && data[j] == b {
			j++
		}
		run := j - i
		if run >= 4 || b == 0xFF {
			dst = append(dst, 0xFF, b)
			dst = binary.AppendUvarint(dst, uint64(run))
		} else {
			for k := 0; k < run; k++ {
				dst = append(dst, b)
			}
		}
		i = j
	}
	return dst
}

// CountBytes checks a stream produced by AppendBytes without decoding it,
// returning its decoded length and the number of bytes it spans. The
// claimed length is checked against decodeLimit before the body is read,
// and again against the body's canonical encoding after.
func CountBytes(src []byte) (int, int, error) {
	total, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: length prefix", ErrCorrupt)
	}
	if total > decodeLimit(len(src)) {
		return 0, 0, fmt.Errorf("%w: claimed length %d from %d input bytes", ErrCorrupt, total, len(src))
	}
	end, canon, err := scanBytes(src, n, total)
	if err != nil {
		return 0, 0, err
	}
	if total > decodeLimit(canon) {
		return 0, 0, fmt.Errorf("%w: length %d from a %d-byte canonical encoding", ErrCorrupt, total, canon)
	}
	return int(total), end, nil
}

// DecodeBytes decodes a stream produced by AppendBytes, appends the data
// to dst and returns the extended slice and the number of bytes consumed.
// The stream is checked in full by CountBytes before dst grows.
func DecodeBytes(dst, src []byte) ([]byte, int, error) {
	total, _, err := CountBytes(src)
	if err != nil {
		return nil, 0, err
	}
	dst, end := ExpandBytes(slices.Grow(dst, total), src)
	return dst, end, nil
}

// ExpandBytes is DecodeBytes without the check, for a caller that has
// already run CountBytes on src: it appends the stream's data to dst,
// which should have room for it, and returns the extended slice and the
// bytes consumed. On a stream CountBytes rejects it may panic or return
// garbage.
func ExpandBytes(dst, src []byte) ([]byte, int) {
	total, off := binary.Uvarint(src)
	for end := len(dst) + int(total); len(dst) < end; {
		b := src[off]
		off++
		if b != 0xFF {
			dst = append(dst, b)
			continue
		}
		v := src[off]
		cnt, k := binary.Uvarint(src[off+1:])
		off += 1 + k
		for i := uint64(0); i < cnt; i++ {
			dst = append(dst, v)
		}
	}
	return dst, off
}

// scanBytes checks the AppendBytes body at src[off:] that decodes to total
// bytes, returning the offset just past it and the length of the stream's
// canonical encoding.
func scanBytes(src []byte, off int, total uint64) (end, canon int, err error) {
	canon = uvarintLen(total)
	var rv byte   // the current run of one byte value, merged across
	var rn uint64 // literals and escapes as AppendBytes writes it
	for got := uint64(0); got < total; {
		if off >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated body", ErrCorrupt)
		}
		v, cnt := src[off], uint64(1)
		off++
		if v == 0xFF {
			if off >= len(src) {
				return 0, 0, fmt.Errorf("%w: truncated escape", ErrCorrupt)
			}
			v = src[off]
			var k int
			if cnt, k = binary.Uvarint(src[off+1:]); k <= 0 {
				return 0, 0, fmt.Errorf("%w: escape count", ErrCorrupt)
			}
			off += 1 + k
		}
		if cnt == 0 || cnt > total-got {
			return 0, 0, fmt.Errorf("%w: escape overruns length", ErrCorrupt)
		}
		got += cnt
		if rn > 0 && v != rv {
			canon += byteRunLen(rv, rn)
			rn = 0
		}
		rv, rn = v, rn+cnt
	}
	return off, canon + byteRunLen(rv, rn), nil
}

// byteRunLen is the length of AppendBytes's encoding of a run of n bytes v.
func byteRunLen(v byte, n uint64) int {
	if n >= 4 || v == 0xFF {
		return 2 + uvarintLen(n)
	}
	return int(n)
}
