package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// cpuShares charges every sample of a gzipped pprof CPU profile to the
// module of its leaf frame and returns each module's share of the
// sampled CPU time: "sim", "core", … for repro/internal/<layer>,
// "go.runtime" for the Go scheduler, collector and allocator, "other"
// for the rest (standard library, this harness). Leaf attribution
// answers "whose instructions ran", not "on whose behalf": memory a
// layer allocates shows under go.runtime.
//
// The reader decodes only the four fields of profile.proto it needs
// (sample, location, function, string_table), so the benchmark needs
// neither `go tool pprof` nor a dependency.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		leaf   uint64
		weight int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string index
		strs     []string
	)
	err = pbFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			haveLeaf := false
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				vals := pbRepeated(v, d)
				switch f {
				case 1: // location_id, leaf first
					if !haveLeaf && len(vals) > 0 {
						s.leaf, haveLeaf = vals[0], true
					}
				case 2: // value: the last one is CPU nanoseconds
					if len(vals) > 0 {
						s.weight = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLeaf {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if haveLine {
						return nil
					}
					haveLine = true
					return pbFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		w := float64(s.weight)
		shares[layerOfFunc(name)] += w
		total += w
	}
	for k := range shares { // no samples (a pass of a few ms): no shares
		shares[k] /= total
	}
	return shares, nil
}

// layerOfFunc maps a symbol such as
// "repro/internal/core.(*Node).OnMessage" to its layer.
func layerOfFunc(name string) string {
	if rest, ok := strings.CutPrefix(name, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	// System calls are the kernel working for whoever made them, not
	// the Go runtime's own work.
	if strings.HasPrefix(name, "internal/runtime/syscall.") {
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(name, p) {
			return "go.runtime"
		}
	}
	return "other"
}

// pbFields walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in data; fixed-width fields are
// skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return fmt.Errorf("truncated varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated bytes in field %d", field)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated returns the values of a repeated integer field occurrence:
// the packed run in data, or the single unpacked value v.
func pbRepeated(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
