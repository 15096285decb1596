package rle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestUint64RoundTrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{},
		{0},
		{1, 1, 1, 1},
		{1, 2, 3, 4},
		{7, 7, 7, 2, 2, 9},
		{1 << 63, 1 << 63, 42},
	}
	for _, vals := range cases {
		enc := AppendUint64s(nil, vals)
		dec, n, err := DecodeUint64s(nil, enc)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d bytes", vals, n, len(enc))
		}
		if len(dec) != len(vals) {
			t.Fatalf("%v: got %v", vals, dec)
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("%v: got %v", vals, dec)
			}
		}
	}
}

func TestUint64RoundTripProperty(t *testing.T) {
	prop := func(vals []uint64) bool {
		enc := AppendUint64s(nil, vals)
		dec, n, err := DecodeUint64s(nil, enc)
		if err != nil || n != len(enc) || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64CompressionOfRuns(t *testing.T) {
	run := make([]uint64, 10000)
	for i := range run {
		run[i] = 1
	}
	enc := AppendUint64s(nil, run)
	if len(enc) > 16 {
		t.Errorf("10000-long run encoded to %d bytes, want <= 16", len(enc))
	}
}

func TestBytesRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		[]byte("hello world"),
		bytes.Repeat([]byte{0}, 5000),
		{1, 1, 1, 1, 2, 0xFF, 0xFF, 3},
	}
	for _, data := range cases {
		enc := AppendBytes(nil, data)
		dec, n, err := DecodeBytes(nil, enc)
		if err != nil {
			t.Fatalf("%v: %v", data, err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d of %d bytes", n, len(enc))
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip failed for %v: got %v", data, dec)
		}
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	prop := func(data []byte) bool {
		enc := AppendBytes(nil, data)
		dec, n, err := DecodeBytes(nil, enc)
		return err == nil && n == len(enc) && bytes.Equal(dec, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesCompressesZeroBuffers(t *testing.T) {
	data := make([]byte, 64<<10)
	enc := AppendBytes(nil, data)
	if len(enc) > 16 {
		t.Errorf("64KiB of zeros encoded to %d bytes", len(enc))
	}
}

func TestBytesAppendsAfterPrefix(t *testing.T) {
	prefix := []byte("prefix")
	enc := AppendBytes(append([]byte(nil), prefix...), []byte("data"))
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("Append overwrote the destination prefix")
	}
	dec, _, err := DecodeBytes(nil, enc[len(prefix):])
	if err != nil || string(dec) != "data" {
		t.Fatalf("decode after prefix: %v %q", err, dec)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	for _, bad := range [][]byte{
		{},              // empty
		{0x80},          // truncated varint
		{5, 0xFF},       // truncated escape
		{5, 0xFF, 1},    // missing count
		{2, 0xFF, 7, 9}, // escape overruns declared length
		// An escape count of 2^64-1 must not wrap the overrun check.
		{2, 'a', 0xFF, 'b', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 'c'},
	} {
		if _, _, err := DecodeBytes(nil, bad); err == nil {
			t.Errorf("DecodeBytes(%v) accepted corrupt input", bad)
		}
	}
	for _, bad := range [][]byte{
		{0x80},
		{1, 0x80},
		{1, 5},
		{1, 5, 0}, // zero-length run
	} {
		if _, _, err := DecodeUint64s(nil, bad); err == nil {
			t.Errorf("DecodeUint64s(%v) accepted corrupt input", bad)
		}
	}
}

// TestDecodeAllocationBounds pins the fix for the corrupt-input
// allocation DoS: a handful of bytes used to be able to claim a ~4 GiB
// decoded size (DecodeBytes pre-allocated the claimed total; DecodeUint64s
// accepted run totals up to 1<<32). Claimed lengths and cumulative run
// totals are now bounded by the input size, so these inputs must be
// rejected as corrupt — quickly and without a large allocation.
func TestDecodeAllocationBounds(t *testing.T) {
	// DecodeBytes: length prefix claims 4 GiB, body is 2 bytes.
	huge := binary.AppendUvarint(nil, 1<<32)
	huge = append(huge, 0xFF, 0x00)
	if _, _, err := DecodeBytes(nil, huge); err == nil {
		t.Fatal("DecodeBytes accepted a 4GiB claim from a few bytes")
	}
	// DecodeUint64s: one run claiming 2^32 values from 4 input bytes.
	run := binary.AppendUvarint(nil, 1) // one run
	run = binary.AppendUvarint(run, 7)  // value
	run = binary.AppendUvarint(run, 1<<32)
	if _, _, err := DecodeUint64s(nil, run); err == nil {
		t.Fatal("DecodeUint64s accepted a 2^32-value run from a few bytes")
	}
	// Many runs summing past the limit must be rejected too, even if each
	// individual run is below it.
	multi := binary.AppendUvarint(nil, 4)
	for i := 0; i < 4; i++ {
		multi = binary.AppendUvarint(multi, uint64(i))
		multi = binary.AppendUvarint(multi, DecodeFloor/2)
	}
	if _, _, err := DecodeUint64s(nil, multi); err == nil {
		t.Fatal("DecodeUint64s accepted cumulative runs past the input-proportional limit")
	}
}

// TestDecodeLargeLegitimateRuns proves the bounds do not reject real
// highly-compressed streams: a long single-value run (the queue stream of
// a thread scheduled many times in a row) still round-trips.
func TestDecodeLargeLegitimateRuns(t *testing.T) {
	vals := make([]uint64, DecodeFloor-1)
	for i := range vals {
		vals[i] = 1
	}
	enc := AppendUint64s(nil, vals)
	dec, n, err := DecodeUint64s(nil, enc)
	if err != nil {
		t.Fatalf("decode of legitimate %d-value run: %v", len(vals), err)
	}
	if n != len(enc) || len(dec) != len(vals) {
		t.Fatalf("round trip consumed %d/%d bytes, decoded %d/%d values", n, len(enc), len(dec), len(vals))
	}

	data := make([]byte, 1<<17) // all zero: collapses to one escape run
	encB := AppendBytes(nil, data)
	decB, _, err := DecodeBytes(nil, encB)
	if err != nil {
		t.Fatalf("decode of legitimate %d-byte zero run: %v", len(data), err)
	}
	if len(decB) != len(data) {
		t.Fatalf("decoded %d bytes, want %d", len(decB), len(data))
	}
}

// TestDecodeLimitFollowsCanonicalEncoding: the decode limit comes from the
// canonical encoding of what a stream decodes to, not from the input, so
// bytes the canonical form drops cannot admit a stream whose canonical
// re-encoding would be refused. Each input below decodes past the floor
// from a canonical encoding of a few bytes, and its own length would have
// cleared the limit.
func TestDecodeLimitFollowsCanonicalEncoding(t *testing.T) {
	over := uint64(DecodeFloor + 1)
	run := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 7), over)
	split := binary.AppendUvarint(nil, 300) // 300 runs of 7, 1.2M values in all
	for i := 0; i < 300; i++ {
		split = binary.AppendUvarint(binary.AppendUvarint(split, 7), 4000)
	}
	zeros := append(binary.AppendUvarint(nil, over), 0xFF, 0)
	zeros = binary.AppendUvarint(zeros, over)
	splitZeros := binary.AppendUvarint(nil, 300*4000)
	for i := 0; i < 300; i++ {
		splitZeros = binary.AppendUvarint(append(splitZeros, 0xFF, 0), 4000)
	}
	uints := map[string][]byte{
		"trailing bytes": append(run, make([]byte, 1024)...),
		"split runs":     split,
	}
	for name, src := range uints {
		if _, _, err := DecodeUint64s(nil, src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeUint64s, %s: err = %v, want ErrCorrupt", name, err)
		}
	}
	byteStreams := map[string][]byte{
		"trailing bytes": append(zeros, make([]byte, 1024)...),
		"split runs":     splitZeros,
	}
	for name, src := range byteStreams {
		if _, _, err := DecodeBytes(nil, src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeBytes, %s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Within the limit, a non-canonical stream decodes and so does its
	// canonical re-encoding.
	ok := binary.AppendUvarint(nil, 200)
	for i := 0; i < 200; i++ {
		ok = binary.AppendUvarint(binary.AppendUvarint(ok, 7), 5000)
	}
	vals, _, err := DecodeUint64s(nil, ok)
	if err != nil {
		t.Fatalf("split runs within the floor: %v", err)
	}
	if _, _, err := DecodeUint64s(nil, AppendUint64s(nil, vals)); err != nil {
		t.Fatalf("canonical re-encoding: %v", err)
	}
}

// TestDecodeIntoSizedArray: the Count functions report what the matching
// decoder yields and consumes, and a decode into an array sized from them
// appends after its contents without allocating.
func TestDecodeIntoSizedArray(t *testing.T) {
	vals := []uint64{5, 5, 5, 9, 1, 1}
	enc := append(AppendUint64s(nil, vals), 0xAA)
	total, n, err := CountUint64s(enc)
	if err != nil || total != len(vals) || n != len(enc)-1 {
		t.Fatalf("CountUint64s = %d, %d, %v; want %d, %d", total, n, err, len(vals), len(enc)-1)
	}
	dst := append(make([]uint64, 0, 2+total), 7, 8)
	var got []uint64
	if allocs := testing.AllocsPerRun(10, func() { got, _, _ = DecodeUint64s(dst, enc) }); allocs != 0 {
		t.Errorf("DecodeUint64s into a sized array allocates %.1f times", allocs)
	}
	if want := append([]uint64{7, 8}, vals...); !slices.Equal(got, want) {
		t.Errorf("DecodeUint64s = %v, want %v", got, want)
	}

	data := []byte("xxxxxxxx\xffab")
	encB := append(AppendBytes(nil, data), 0xAA)
	total, n, err = CountBytes(encB)
	if err != nil || total != len(data) || n != len(encB)-1 {
		t.Fatalf("CountBytes = %d, %d, %v; want %d, %d", total, n, err, len(data), len(encB)-1)
	}
	dstB := append(make([]byte, 0, 1+total), '>')
	var gotB []byte
	if allocs := testing.AllocsPerRun(10, func() { gotB, _, _ = DecodeBytes(dstB, encB) }); allocs != 0 {
		t.Errorf("DecodeBytes into a sized array allocates %.1f times", allocs)
	}
	if want := ">" + string(data); string(gotB) != want {
		t.Errorf("DecodeBytes = %q, want %q", gotB, want)
	}
}
