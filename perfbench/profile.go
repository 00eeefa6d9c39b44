package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuLayers are the layers a CPU sample can be attributed to; each
// becomes a <layer>.cpu_pct metric. phy counts as channel. A sample
// with no tcphack/internal frame of these packages, and no GC or
// malloc frame, is "other" (the Go scheduler, net/http, the benchmark
// itself).
var cpuLayers = []string{"sim", "channel", "mac", "hack", "rohc", "tcp", "packet", "node",
	"stats", "campaign", "results", "dist", "trace", "gc", "other"}

// cpuShares decodes CPU profiles written by runtime/pprof and returns
// each layer's share of their CPU time in percent (summing to 100) and
// the CPU seconds profiled. A sample goes to the innermost frame in a
// tcphack/internal package, so runtime helpers such as asyncPreempt
// and map hashing land on their caller; a sample with a GC or malloc
// frame inside that one goes to "gc".
func cpuShares(paths ...string) (map[string]float64, float64, error) {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	weight := map[string]float64{}
	var total float64
	for _, path := range paths {
		p, err := readProfile(path)
		if err != nil {
			return nil, 0, err
		}
		p.attribute(known, weight)
	}
	for _, w := range weight {
		total += w
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * weight[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, total / 1e9, nil
}

// readProfile reads and decodes a gzipped profile.proto file.
func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	return p, nil
}

// attribute adds each sample's CPU time to its layer's weight.
func (p *profile) attribute(known map[string]bool, weight map[string]float64) {
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fn]]
				if isGCFrame(name) {
					layer = "gc"
					break frames
				}
				if l, ok := internalPackage(name); ok {
					if l == "phy" {
						l = "channel"
					}
					if known[l] {
						layer = l
					}
					break frames
				}
			}
		}
		weight[layer] += float64(s.value)
	}
}

// internalPackage returns the package of a tcphack/internal function
// name such as "tcphack/internal/mac.(*Station).transmit".
func internalPackage(fn string) (string, bool) {
	const prefix = "tcphack/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// gcFrames are the runtime functions (by name prefix, after
// "runtime.") that allocate or collect memory.
var gcFrames = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "makemap", "growslice",
	"gc", "bgsweep", "bgscavenge", "sweepone", "markroot", "scanobject", "scanblock",
	"scanstack", "scanframeworker", "greyobject", "wbBuf", "(*gcWork)", "(*gcBits)",
	"(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*sweepLocked)", "(*pageAlloc)",
	"(*gcControllerState)", "(*scavengerState)", "deductAssistCredit",
}

func isGCFrame(fn string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range gcFrames {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile.proto message the attribution
// needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]int64    // function ID → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// decodeProfile parses the protobuf wire form of a profile: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					if d == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return varints(d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					if d == nil {
						s.value = int64(v)
						return nil
					}
					return varints(d, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value (data nil) or its bytes. Fixed
// 32- and 64-bit fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints decodes a packed repeated varint field.
func varints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
