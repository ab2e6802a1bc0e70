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

// layers names the buckets of the per-layer split, in report order. The
// first ten are packages under chopim/internal; "runtime" takes samples
// with no chopim/internal frame at all (GC workers, the scheduler, the
// benchmark's own loop), and "other" takes samples whose innermost
// chopim/internal frame belongs to a package not listed here.
var layers = []string{
	"sim", "mc", "dram", "addrmap", "nda", "ndart", "cache", "cpu", "workload",
	"experiments", "runtime", "other",
}

const internalPrefix = "chopim/internal/"

// layerOf attributes one sample to a layer. funcs is the sample's call
// stack, innermost frame first, with inlined frames expanded in place.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers[:len(layers)-2] {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// layerSplit is one CPU profile reduced to the layer split.
type layerSplit struct {
	Samples int64            `json:"samples"`
	CPUNS   map[string]int64 `json:"cpu_ns"` // by layer
}

// splitProfile decodes a gzipped runtime/pprof CPU profile and sums each
// sample's CPU time into the layer layerOf picks for its stack.
func splitProfile(gz []byte) (layerSplit, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return layerSplit{}, err
	}
	out := layerSplit{CPUNS: map[string]int64{}}
	for _, l := range layers {
		out.CPUNS[l] = 0
	}
	vi := p.valueIndex("cpu")
	var funcs []string
	for _, s := range p.samples {
		funcs = funcs[:0]
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				funcs = append(funcs, p.str(p.funcName[fid]))
			}
		}
		if vi >= len(s.values) {
			return layerSplit{}, fmt.Errorf("pprof: sample has %d values, want index %d", len(s.values), vi)
		}
		out.Samples += s.values[0]
		out.CPUNS[layerOf(funcs)] += s.values[vi]
	}
	return out, nil
}

// profile holds the parts of profile.proto the split needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string-table index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// valueIndex returns the index of the sample value with the given type,
// or the last value when no type matches (a CPU profile's values are
// samples/count then cpu/nanoseconds).
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if p.str(t) == typ {
			return i
		}
	}
	return len(p.sampleTypes) - 1
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message. For varint fields fn gets the
// value in v; for length-delimited fields it gets the payload in b.
// Fixed-width fields are skipped (profile.proto's used fields have none).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
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
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unknown wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field given either unpacked (one
// varint in v, b nil) or packed (a run of varints in b).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
