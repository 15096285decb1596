package rle

import (
	"bytes"
	"testing"
)

func FuzzDecodeBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBytes(nil, []byte("seed data")))
	f.Add(AppendBytes(nil, bytes.Repeat([]byte{0xFF}, 100)))
	f.Add([]byte{0x80, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, n, err := DecodeBytes(nil, data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Re-encoding the decoded payload must round trip.
		enc := AppendBytes(nil, dec)
		dec2, _, err := DecodeBytes(nil, enc)
		if err != nil || !bytes.Equal(dec, dec2) {
			t.Fatal("canonical round trip failed")
		}
	})
}

func FuzzDecodeUint64s(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendUint64s(nil, []uint64{1, 1, 1, 9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, n, err := DecodeUint64s(nil, data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := AppendUint64s(nil, vals)
		vals2, _, err := DecodeUint64s(nil, enc)
		if err != nil || len(vals) != len(vals2) {
			t.Fatal("canonical round trip failed")
		}
	})
}
