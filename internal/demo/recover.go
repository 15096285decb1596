// Reading the v2 streamed container: strict decoding of complete files
// (DecodeStream, dispatched to by ReadFile) and tolerant recovery of torn
// ones (Recover / RecoverBytes).
//
// Recovery rules: scan the file chunk by chunk, stopping at the first
// structurally invalid or CRC-failing chunk (the torn tail a crash
// leaves). Every intact footer is a candidate cut; candidates are tried
// newest-first and the first whose reconstructed prefix validates wins —
// the longest valid prefix of the recording. The recovered demo carries
// Truncated=true unless the file ends in an intact final footer, which
// makes its replay stop cleanly at FinalTick instead of hard-desyncing
// when the program runs past the end of the streams.
package demo

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// DecodeStream parses a complete v2 streamed container. The file must end
// in an intact footer written by Close (the final flag); anything torn is
// rejected — use Recover for files left behind by a crash.
func DecodeStream(data []byte) (*Demo, error) {
	return decodeV2(data, false)
}

// Recover reads a possibly-torn v2 container from path and reconstructs
// the longest valid prefix as a replayable Demo. See RecoverBytes.
func Recover(path string) (*Demo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return RecoverBytes(data)
}

// RecoverBytes is Recover over in-memory bytes: it drops any torn tail,
// cuts the stream at the newest intact footer whose prefix validates, and
// returns the reconstructed Demo. The result's Truncated flag is set
// unless the data ends in an intact final footer (in which case the
// result equals DecodeStream's).
func RecoverBytes(data []byte) (*Demo, error) {
	return decodeV2(data, true)
}

// v2Footer is one decoded footer chunk plus where its chunk ends.
type v2Footer struct {
	final bool
	tick  uint64
	hash  uint64
	end   int // offset just past the footer's CRC
}

func decodeV2(data []byte, tolerant bool) (*Demo, error) {
	if len(data) < v2HeaderLen || string(data[:len(magic2)]) != magic2 {
		return nil, fmt.Errorf("%w: bad v2 magic", ErrCorrupt)
	}
	if v := data[len(magic2)]; v != version2 {
		return nil, fmt.Errorf("%w: unsupported v2 version %d", ErrCorrupt, v)
	}
	strategy := Strategy(data[len(magic2)+1])
	seed1 := binary.LittleEndian.Uint64(data[len(magic2)+2:])
	seed2 := binary.LittleEndian.Uint64(data[len(magic2)+10:])

	// Scan pass: walk intact chunks, collecting footers (only the last,
	// for a strict decode). The walk stops at the first chunk that is
	// structurally invalid or fails its CRC — the torn tail.
	var footers []v2Footer
	var last v2Footer
	off := v2HeaderLen
	for off < len(data) {
		typ, pay, next, ok := parseChunk(data, off)
		if !ok {
			break
		}
		if typ == chunkFooter {
			fo, ok := parseFooter(pay)
			if !ok {
				if !tolerant {
					return nil, fmt.Errorf("%w: malformed footer chunk at offset %d", ErrCorrupt, off)
				}
				break
			}
			fo.end = next
			if last = fo; tolerant {
				footers = append(footers, fo)
			}
		}
		off = next
	}

	if !tolerant {
		if off != len(data) {
			return nil, fmt.Errorf("%w: torn chunk at offset %d (crashed recording? use Recover)", ErrCorrupt, off)
		}
		if !last.final || last.end != len(data) {
			return nil, fmt.Errorf("%w: stream does not end in a final footer (crashed recording? use Recover)", ErrCorrupt)
		}
		return buildV2(data, strategy, seed1, seed2, last, false)
	}

	if len(footers) == 0 {
		return nil, fmt.Errorf("%w: no intact footer; nothing to recover", ErrCorrupt)
	}
	// Try cuts newest-first; the first prefix that reconstructs and
	// validates is the longest valid prefix.
	var lastErr error
	for i := len(footers) - 1; i >= 0; i-- {
		fo := footers[i]
		complete := fo.final && fo.end == len(data)
		d, err := buildV2(data, strategy, seed1, seed2, fo, !complete)
		if err != nil {
			lastErr = err
			continue
		}
		if err := d.Validate(); err != nil {
			lastErr = err
			continue
		}
		return d, nil
	}
	return nil, fmt.Errorf("demo: no recoverable prefix: %w", lastErr)
}

// parseChunk parses the chunk at off: type byte, uvarint length, payload,
// CRC32. ok is false if the chunk is truncated, has an unknown type, or
// fails its CRC — all of which recovery treats as the torn tail.
func parseChunk(data []byte, off int) (typ byte, pay []byte, next int, ok bool) {
	if off >= len(data) {
		return 0, nil, 0, false
	}
	typ = data[off]
	if typ != chunkQueue && typ != chunkEvents && typ != chunkFooter {
		return 0, nil, 0, false
	}
	ln, n := binary.Uvarint(data[off+1:])
	if n <= 0 || ln > uint64(len(data)) {
		return 0, nil, 0, false
	}
	body := off + 1 + n
	end := body + int(ln)
	if body > len(data) || end+4 > len(data) {
		return 0, nil, 0, false
	}
	pay = data[body:end]
	if crc32.ChecksumIEEE(pay) != binary.LittleEndian.Uint32(data[end:]) {
		return 0, nil, 0, false
	}
	return typ, pay, end + 4, true
}

// parseFooter decodes a footer payload: flags byte, uvarint tick, 8-byte
// output hash, nothing else.
func parseFooter(pay []byte) (v2Footer, bool) {
	c := &payCursor{pay: pay}
	fo := v2Footer{
		final: c.byteVal("footer flags")&footerFinal != 0,
		tick:  c.uvarint("footer tick"),
		hash:  c.fixed64("footer hash"),
	}
	c.exhausted("footer")
	return fo, c.err == nil
}

// buildV2 reconstructs the demo from every chunk before fo's end. It
// reads the chunks twice, counting the records and then filling arrays
// sized once at those counts (see payCursor), so a recording cut into
// many chunks allocates what the same records in one chunk would.
func buildV2(data []byte, strategy Strategy, seed1, seed2 uint64, fo v2Footer, truncated bool) (*Demo, error) {
	d := &Demo{
		Strategy:   strategy,
		Seed1:      seed1,
		Seed2:      seed2,
		FinalTick:  fo.tick,
		OutputHash: fo.hash,
		Truncated:  truncated,
	}
	var n recordCounts
	var ticks []uint64
	var arena bufArena
	for _, counting := range [2]bool{true, false} {
		if !counting {
			ticks, arena = n.alloc(d)
		}
		c := payCursor{counting: counting}
		for off := v2HeaderLen; off < fo.end; {
			typ, pay, next, ok := parseChunk(data, off)
			if !ok {
				// Cannot happen: the scan pass validated every chunk up to fo.
				return nil, fmt.Errorf("%w: unparseable chunk at offset %d", ErrCorrupt, off)
			}
			off = next
			c.pay, c.off = pay, 0
			switch typ {
			case chunkQueue:
				start, at := c.uvarint("queue chunk start slot"), len(ticks)
				if counting {
					at = c.n.ticks
				}
				if c.err == nil && start != uint64(at) {
					return nil, fmt.Errorf("%w: queue chunk starts at slot %d, want %d", ErrCorrupt, start, at)
				}
				ticks = c.rleUint64s(ticks, "queue chunk deltas")
				d.Queue.FirstTick = c.firstTicks(d.Queue.FirstTick)
				// A patch backfills a slot an earlier chunk wrote; a
				// reader that never sees it keeps the slot's 0, "never
				// scheduled again within this prefix".
				nPatches := c.uvarint("queue chunk patch count")
				for i := uint64(0); i < nPatches && c.err == nil; i++ {
					slot := c.uvarint("queue chunk patch slot")
					delta := c.uvarint("queue chunk patch delta")
					if c.err == nil && !counting {
						if slot >= uint64(len(ticks)) {
							return nil, fmt.Errorf("%w: queue chunk patches slot %d, which no chunk before it holds", ErrCorrupt, slot)
						}
						ticks[slot] = delta
					}
				}
				c.exhausted("queue chunk")
			case chunkEvents:
				d.Signals = c.signals(d.Signals)
				d.Asyncs = c.asyncs(d.Asyncs)
				d.Syscalls = c.syscalls(d.Syscalls, &arena)
				c.exhausted("events chunk")
			case chunkFooter:
				// Earlier footer candidates are just markers; nothing to apply.
			}
			if c.err != nil {
				return nil, c.err
			}
		}
		n = c.n // the counting pass's totals; the filling pass counts nothing
	}
	if strategy == StrategyQueue {
		// Slots at or past FinalTick describe ticks beyond the cut; drop
		// them (they can only appear via defensive clamping).
		if uint64(len(ticks)) > fo.tick {
			ticks = ticks[:fo.tick]
		}
		d.Queue.Ticks = ticks
	}
	return d, nil
}
