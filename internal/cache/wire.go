// Encoded form of the cache levels. Cache line arrays dominate a
// checkpoint's size (the LLC alone is >100k lines), so they pack into a
// varint-coded binary blob rather than per-line JSON objects: a line is
// flags(1) uvarint(tag) uvarint(lru), so an invalid line costs 3 bytes
// and a typical valid one under ten, which keeps an encode to
// milliseconds. The line count rides alongside the blob, so truncation
// is detected structurally (and the envelope digest covers the bytes
// anyway). Everything else in HierarchyState encodes as its own
// exported fields.
package cache

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// packLines encodes a level's lines in way order. An invalid way packs
// as tag 0, lru 0, clean — what its zero word holds.
func packLines(st *cacheState) []byte {
	b := make([]byte, 0, len(st.lines)*3)
	var tmp [2 * binary.MaxVarintLen64]byte
	for i, l := range st.lines {
		var f byte
		var tag uint64
		if key := l >> 1; key != 0 {
			f |= 1
			tag = uint64(key) - 1
		}
		if l&dirtyBit != 0 {
			f |= 2
		}
		n := binary.PutUvarint(tmp[:], tag)
		n += binary.PutUvarint(tmp[n:], uint64(st.lru[i]))
		b = append(append(b, f), tmp[:n]...)
	}
	return b
}

// unpackLines decodes count packed lines into st's way words and lru
// values. A line flagged invalid restores as an empty way whatever else
// it carries; a valid line's tag must fit the packed word and its lru
// 32 bits.
func unpackLines(b []byte, count int, st *cacheState) error {
	if count < 0 {
		return fmt.Errorf("cache: negative packed line count %d", count)
	}
	st.lines, st.lru = make([]uint32, count), make([]uint32, count)
	for i := 0; i < count; i++ {
		if len(b) == 0 {
			return fmt.Errorf("cache: packed line blob ends at line %d of %d", i, count)
		}
		f := b[0]
		b = b[1:]
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cache: bad tag varint at line %d", i)
		}
		b = b[n:]
		lru, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cache: bad lru varint at line %d", i)
		}
		b = b[n:]
		if f&1 == 0 {
			continue
		}
		if tag >= maxKey || lru > math.MaxUint32 {
			return fmt.Errorf("cache: line %d (tag %#x, lru %d) does not fit a packed way", i, tag, lru)
		}
		l := uint32(tag+1) << 1
		if f&2 != 0 {
			l |= dirtyBit
		}
		st.lines[i], st.lru[i] = l, uint32(lru)
	}
	if len(b) != 0 {
		return fmt.Errorf("cache: %d trailing bytes after %d packed lines", len(b), count)
	}
	return nil
}

// cacheWire is one cache level's packed form.
type cacheWire struct {
	NLines int
	Lines  []byte // packLines
	Hits   int64
	Misses int64
}

func cacheToWire(st *cacheState) cacheWire {
	return cacheWire{NLines: len(st.lines), Lines: packLines(st), Hits: st.hits, Misses: st.misses}
}

func cacheFromWire(w *cacheWire) (cacheState, error) {
	st := cacheState{hits: w.Hits, misses: w.Misses}
	if err := unpackLines(w.Lines, w.NLines, &st); err != nil {
		return cacheState{}, err
	}
	return st, nil
}

// hierarchyFields is HierarchyState without its methods, so the wire
// struct can embed it and encoding/json passes its fields through.
type hierarchyFields HierarchyState

// hierarchyWire is HierarchyState with the levels packed. The levels
// come first and the embedded fields follow in declaration order, so
// the encoding is the same document the state's own fields describe.
// It is marshaled in one pass: a per-level MarshalJSON would make
// encoding/json re-compact every line blob.
type hierarchyWire struct {
	L1, L2 []cacheWire
	LLC    cacheWire
	*hierarchyFields
}

// MarshalJSON encodes the snapshot for the checkpoint envelope.
func (st *HierarchyState) MarshalJSON() ([]byte, error) {
	w := hierarchyWire{LLC: cacheToWire(&st.LLC), hierarchyFields: (*hierarchyFields)(st)}
	for i := range st.L1 {
		w.L1 = append(w.L1, cacheToWire(&st.L1[i]))
	}
	for i := range st.L2 {
		w.L2 = append(w.L2, cacheToWire(&st.L2[i]))
	}
	return json.Marshal(w)
}

// UnmarshalJSON rebuilds the snapshot written by MarshalJSON.
func (st *HierarchyState) UnmarshalJSON(b []byte) error {
	w := hierarchyWire{hierarchyFields: (*hierarchyFields)(st)}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	var err error
	if st.LLC, err = cacheFromWire(&w.LLC); err != nil {
		return err
	}
	st.L1, st.L2 = make([]cacheState, len(w.L1)), make([]cacheState, len(w.L2))
	for i := range w.L1 {
		if st.L1[i], err = cacheFromWire(&w.L1[i]); err != nil {
			return err
		}
	}
	for i := range w.L2 {
		if st.L2[i], err = cacheFromWire(&w.L2[i]); err != nil {
			return err
		}
	}
	return nil
}
