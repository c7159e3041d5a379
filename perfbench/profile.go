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

// foldProfile charges every CPU-profile sample to the innermost
// squeezy/internal/<pkg> frame on its stack (inlined frames included)
// and returns the CPU nanoseconds charged to each package. Samples
// with no such frame — the Go runtime, the garbage collector, the
// benchmark itself — are charged to "other".
//
// The profile is the gzipped protobuf runtime/pprof writes; only the
// fields the fold needs are decoded: samples (location IDs and
// values), locations (their lines' function IDs), functions (their
// names) and the string table.
func foldProfile(gz []byte) (map[string]float64, error) {
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
		values []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcName = map[uint64]uint64{}   // function ID -> string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	weights := map[string]float64{}
	for _, s := range samples {
		// CPU profiles carry (samples, nanoseconds); weigh by time.
		if len(s.values) > 0 {
			weights[layerOf(s.locs, locFuncs, funcName, strs)] += float64(s.values[len(s.values)-1])
		}
	}
	return weights, nil
}

const internalPrefix = "squeezy/internal/"

func layerOf(locs []uint64, locFuncs map[uint64][]uint64, funcName map[uint64]uint64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			idx, ok := funcName[fn]
			if !ok || idx >= uint64(len(strs)) {
				continue
			}
			name, found := strings.CutPrefix(strs[idx], internalPrefix)
			if !found {
				continue
			}
			if i := strings.IndexAny(name, "./"); i >= 0 {
				name = name[:i]
			}
			return name
		}
	}
	return "other"
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing each
// field's number with its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, f func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, in either its
// unpacked (one value) or packed (a byte run of values) encoding.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
