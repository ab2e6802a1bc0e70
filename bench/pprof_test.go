package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// Hand-built stacks pin the attribution rule: innermost chopim/internal
// frame wins, inlined frames count, a stack without one goes to runtime,
// and a chopim/internal package that is not a layer goes to other.
func TestSplitSyntheticStacks(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                                // 1
		"main.main",                                       // 2
		"chopim/internal/dram.(*Mem).CanIssue",            // 3
		"chopim/internal/mc.(*Controller).schedule",       // 4
		"chopim/internal/ring.(*Ring[go.shape.int]).Push", // 5
		"chopim/internal/nda.(*Engine).TickChannel",       // 6
	}
	// Location id -> function ids, innermost first (location 2 is dram
	// inlined into mc).
	locs := map[uint64][]uint64{1: {1}, 2: {3, 4}, 3: {2}, 4: {5}, 5: {6}}
	samples := []struct {
		locs []uint64
		ns   int64
		want string
	}{
		{[]uint64{1, 3}, 10_000_000, "runtime"}, // runtime.mallocgc <- main.main
		{[]uint64{1, 2, 3}, 20_000_000, "dram"}, // runtime <- dram inlined in mc
		{[]uint64{4, 5, 3}, 40_000_000, "other"},
	}
	var sampleMsgs [][]byte
	want := map[string]int64{}
	for _, s := range samples {
		sampleMsgs = append(sampleMsgs, concat(
			pbPacked(1, s.locs...),
			pbPacked(2, 1, uint64(s.ns)),
		))
		want[s.want] += s.ns
	}
	gz := encodeProfile(funcs, locs, sampleMsgs)
	split, err := splitProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if split.Samples != int64(len(samples)) {
		t.Errorf("samples = %d, want %d", split.Samples, len(samples))
	}
	for _, l := range layers {
		if split.CPUNS[l] != want[l] {
			t.Errorf("%s = %d ns, want %d", l, split.CPUNS[l], want[l])
		}
	}
	if _, err := splitProfile(gz[:len(gz)/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// encodeProfile writes a minimal gzipped profile.proto with sample types
// samples/count and cpu/nanoseconds.
func encodeProfile(funcs []string, locs map[uint64][]uint64, samples [][]byte) []byte {
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	var msg []byte
	msg = append(msg, pbBytes(1, concat(pbVarint(1, 1), pbVarint(2, 2)))...)
	msg = append(msg, pbBytes(1, concat(pbVarint(1, 3), pbVarint(2, 4)))...)
	for _, s := range samples {
		msg = append(msg, pbBytes(2, s)...)
	}
	for id := uint64(1); id <= uint64(len(locs)); id++ {
		loc := pbVarint(1, id)
		for _, f := range locs[id] {
			loc = append(loc, pbBytes(4, pbVarint(1, f))...)
		}
		msg = append(msg, pbBytes(4, loc)...)
	}
	for i := range funcs {
		msg = append(msg, pbBytes(5, concat(pbVarint(1, uint64(i+1)), pbVarint(2, uint64(i+5))))...)
	}
	for _, s := range strs {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(msg)
	zw.Close()
	return buf.Bytes()
}

func pbKey(num, wire int) []byte { return binary.AppendUvarint(nil, uint64(num<<3|wire)) }

func pbVarint(num int, v uint64) []byte { return binary.AppendUvarint(pbKey(num, 0), v) }

func pbBytes(num int, b []byte) []byte {
	out := binary.AppendUvarint(pbKey(num, 2), uint64(len(b)))
	return append(out, b...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return pbBytes(num, b)
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
