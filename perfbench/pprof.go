package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// startProfile starts the CPU profiler; the returned stop function stops it
// and returns the self time per package, in seconds, keyed by the short
// package name ("sim", "netem", ...; the Go runtime is "runtime"). Self time
// is attributed to the innermost function of each sample, inlined frames
// included. Stopping waits for the profiler to flush, so a timed unit should
// read its clock before calling stop.
func startProfile() (stop func() (map[string]float64, error), err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		return selfByPackage(buf.Bytes())
	}, nil
}

// selfByPackage decodes a gzipped pprof CPU profile (the subset of
// profile.proto the Go runtime writes) and sums each sample's CPU
// nanoseconds onto the package of its leaf function.
func selfByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string table index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					for _, x := range appendPacked(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fnID uint64
			first := true
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: the first entry is the innermost inlined frame
					if !first {
						return nil
					}
					first = false
					return eachField(d, func(f, w int, v uint64, d []byte) error {
						if f == 1 {
							fnID = v
						}
						return nil
					})
				}
				return nil
			})
			leafFn[id] = fnID
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) < 2 {
			continue
		}
		idx := fnName[leafFn[s.locs[0]]]
		if idx < 0 || int(idx) >= len(strs) {
			return nil, errors.New("profile: function name out of range")
		}
		out[packageOf(strs[idx])] += float64(s.values[1]) / 1e9
	}
	return out, nil
}

// packageOf maps a fully qualified function name to its short package name:
// "pulsedos/internal/netem.(*Link).Send" -> "netem", "runtime.mallocgc" ->
// "runtime".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	rest := fn[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest
}

// appendPacked appends a repeated varint field in either encoding.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited payload.
func eachField(msg []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			data = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
