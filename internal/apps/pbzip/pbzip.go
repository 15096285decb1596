// Package pbzip models pbzip2 (§5.3): a parallel block compressor with a
// producer thread that reads and chunks the input file, a pool of
// compressor threads, and an ordered writer. Compression is real
// (compress/flate), so the run is compute-dominated with sparse visible
// operations — the profile for which the paper reports tsan11rec's lowest
// overheads (1.3-2.0x) versus rr's 7-8x.
package pbzip

import (
	"bytes"
	"compress/flate"
	"fmt"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/env"
)

// Config parameterises a compression run.
type Config struct {
	Workers   int
	ChunkSize int
	Input     string
	Output    string
}

// DefaultConfig compresses with 4 workers and 8 KiB blocks, as the paper
// uses 4 threads.
func DefaultConfig() Config {
	return Config{Workers: 4, ChunkSize: 8 << 10, Input: "/data/input", Output: "/data/out.bz"}
}

// MakeInput synthesises a compressible input of n bytes into the world's
// filesystem (the paper compresses a 400MB file; callers scale n).
func MakeInput(w *env.World, name string, n int) {
	data := make([]byte, n)
	state := uint64(88172645463325252)
	for i := range data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		// Mostly-repetitive text-like bytes so flate has work and wins.
		data[i] = "aaaaabcdeeeeefghiijklmnoopqrstuuvwxyz     \n"[state%43]
	}
	w.AddFile(name, data)
}

// Compress returns the program main: read, chunk, compress in parallel,
// write blocks in order.
func Compress(rt *core.Runtime, cfg Config) func(*core.Thread) {
	return func(main *core.Thread) {
		inFD, errno := main.Open(cfg.Input)
		if errno != env.OK {
			panic("pbzip: open input: " + errno.String())
		}
		outFD, errno := main.Create(cfg.Output)
		if errno != env.OK {
			panic("pbzip: create output: " + errno.String())
		}

		type chunk struct {
			seq  int
			data []byte
		}
		queue := conc.NewQueue[chunk](rt, "pbzip.q", 0)

		omu := rt.NewMutex("pbzip.out.mu")
		ocv := rt.NewCond("pbzip.out.cv", omu)
		results := core.NewVar(rt, "pbzip.results", map[int][]byte{})
		nextOut := core.NewVar(rt, "pbzip.next", 0)

		var hs []*core.Handle
		for w := 0; w < cfg.Workers; w++ {
			hs = append(hs, main.Spawn(fmt.Sprintf("pbzip-%d", w), func(t *core.Thread) {
				for {
					c, ok := queue.Pop(t)
					if !ok {
						return
					}
					// Invisible compute: the actual compression.
					var buf bytes.Buffer
					zw, err := flate.NewWriter(&buf, flate.BestSpeed)
					if err != nil {
						panic(err)
					}
					if _, err := zw.Write(c.data); err != nil {
						panic(err)
					}
					zw.Close()
					omu.Lock(t)
					results.Update(t, func(m map[int][]byte) map[int][]byte {
						m[c.seq] = buf.Bytes()
						return m
					})
					ocv.Broadcast(t)
					omu.Unlock(t)
				}
			}))
		}

		// Writer thread: emit blocks in order.
		totalChunks := core.NewVar(rt, "pbzip.total", -1)
		writer := main.Spawn("pbzip-writer", func(t *core.Thread) {
			for {
				omu.Lock(t)
				var block []byte
				for {
					next := nextOut.Read(t)
					total := totalChunks.Read(t)
					if total >= 0 && next >= total {
						omu.Unlock(t)
						return
					}
					m := results.Read(t)
					if b, ok := m[next]; ok {
						block = b
						results.Update(t, func(m map[int][]byte) map[int][]byte {
							delete(m, next)
							return m
						})
						nextOut.Write(t, next+1)
						break
					}
					ocv.Wait(t)
				}
				omu.Unlock(t)
				hdr := fmt.Sprintf("BZh%08d", len(block))
				t.Write(outFD, []byte(hdr))
				t.Write(outFD, block)
			}
		})

		// Producer: read and chunk the input.
		seq := 0
		for {
			data, errno := main.Read(inFD, cfg.ChunkSize)
			if errno != env.OK || len(data) == 0 {
				break
			}
			queue.Push(main, chunk{seq, data})
			seq++
		}
		queue.Close(main)
		omu.Lock(main)
		totalChunks.Write(main, seq)
		ocv.Broadcast(main)
		omu.Unlock(main)

		for _, h := range hs {
			main.Join(h)
		}
		main.Join(writer)
		main.Close(inFD)
		main.Close(outFD)
	}
}

// RunOnce compresses a fresh n-byte input under opts, returning the wall
// time and the compressed size.
func RunOnce(opts core.Options, cfg Config, inputLen int) (time.Duration, int, *core.Report, error) {
	world := opts.World
	if world == nil {
		world = env.NewWorld(opts.Seed1 ^ opts.Seed2)
		opts.World = world
	}
	MakeInput(world, cfg.Input, inputLen)
	if opts.MaxTicks == 0 {
		opts.MaxTicks = 20_000_000
	}
	if opts.WallTimeout == 0 {
		opts.WallTimeout = 60 * time.Second
	}
	rt, err := core.New(opts)
	if err != nil {
		return 0, 0, nil, err
	}
	start := time.Now() //tsanrec:allow(rawsync) host-side wall-clock measurement around Run, not program logic
	rep, err := rt.Run(Compress(rt, cfg))
	d := time.Since(start) //tsanrec:allow(rawsync) host-side wall-clock measurement around Run, not program logic
	if err != nil {
		return d, 0, rep, err
	}
	out, _ := world.FileContent(cfg.Output)
	return d, len(out), rep, nil
}
