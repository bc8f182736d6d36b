package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps a Go function name to the layer (package) it belongs to;
// ok is false for code outside the module. dense is precond's block
// Cholesky backend and counts as precond; obs and hostobs are one
// observability layer; package main is the benchmark itself.
func layerOf(fn string) (layer string, ok bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic shape arguments, which contain '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main":
		return "bench", true
	case pkg == "esrp":
		return "esrp", true
	case strings.HasPrefix(pkg, "esrp/internal/"):
		switch name := strings.TrimPrefix(pkg, "esrp/internal/"); name {
		case "dense":
			return "precond", true
		case "hostobs":
			return "obs", true
		default:
			return name, true
		}
	}
	return "", false
}

// profileLayers reads a gzipped pprof CPU profile and sums the CPU time of
// the samples carrying the op label by layer: each sample goes to the
// innermost frame (inlined frames included) that belongs to the module, so
// runtime work such as GC assists counts toward the layer that caused it.
// Samples with no module frame land under "other". onPath holds every
// layer with a frame anywhere in an op sample's stack.
func profileLayers(gz []byte) (ns map[string]float64, onPath map[string]bool, nSamples int, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, 0, err
	}

	type sample struct {
		locs, vals []uint64
		labels     [][2]uint64 // (key, value) string indices
	}
	var (
		strs      []string
		valueType [][2]uint64 // (type, unit) string indices
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → name string index
	)
	err = fields(raw, func(num int, wt uint64, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := fields(data, func(n int, _ uint64, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			valueType = append(valueType, vt)
			return err
		case 2: // sample
			var s sample
			err := fields(data, func(n int, wt uint64, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = repeated(s.locs, wt, v, d)
				case 2:
					s.vals = repeated(s.vals, wt, v, d)
				case 3:
					var kv [2]uint64
					if err := fields(d, func(n int, _ uint64, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = v
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, _ uint64, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n int, _ uint64, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(n int, _ uint64, v uint64, _ []byte) error {
				if n == 1 {
					id = v
				} else if n == 2 {
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("decode CPU profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, vt := range valueType {
		if str(vt[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, nil, 0, errors.New("CPU profile has no nanoseconds value")
	}

	ns, onPath = map[string]float64{}, map[string]bool{}
	for _, s := range samples {
		op := false
		for _, kv := range s.labels {
			op = op || str(kv[0]) == opLabel
		}
		if !op || vi >= len(s.vals) {
			continue
		}
		nSamples++
		layer := "other"
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if l, ok := layerOf(str(funcNames[fid])); ok {
					if layer == "other" {
						layer = l
					}
					onPath[l] = true
				}
			}
		}
		ns[layer] += float64(s.vals[vi])
	}
	return ns, onPath, nSamples, nil
}

// fields walks the top-level fields of one protobuf message. v holds a
// varint or fixed-width value, data a length-delimited payload.
func fields(b []byte, fn func(num int, wt, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wt := key & 7; wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends one occurrence of a repeated integer field, which the
// encoder may write packed (wire type 2) or one value at a time.
func repeated(dst []uint64, wt, v uint64, data []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
