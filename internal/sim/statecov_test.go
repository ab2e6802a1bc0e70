package sim

import (
	"reflect"
	"strings"
	"testing"

	"chopim/internal/cache"
	"chopim/internal/cpu"
	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/osmem"
	"chopim/internal/stats"
	"chopim/internal/workload"
)

// notCarried is why a live field is deliberately absent from its
// component's snapshot state.
type notCarried string

const (
	closure  notCarried = "a closure, rebuilt by the constructor or resolved on restore"
	pool     notCarried = "a free-list pool holding no live objects"
	config   notCarried = "config: a construction input, wiring, or a value derived from them"
	schedMem notCarried = "a scheduling or decode cache that re-derives after restore"
	memOnly  notCarried = "in-memory only, never durable"
	rearmed  notCarried = "skip bookkeeping that restore clears and the next probe re-arms"
	refilled notCarried = "trace lookahead: restore waits for the fill in flight, replays the carried position into the cursor and refills the batches from it"
	handoff  notCarried = "the batch handoff: restore drains it and the refill starts it anew"
)

// stateCoverage maps one live struct a Snapshot reads onto its state.
// A live field is carried by the state field of the same name (up to
// case) unless carriedBy names another one; a field the state does not
// carry must be listed in skip. When state is live, the struct is its
// own state and a field is carried when encoding/json writes it.
type stateCoverage struct {
	live, state reflect.Type
	carriedBy   map[string]string
	skip        map[string]notCarried
}

// fieldType returns the type of st's field name, failing the test when
// the field is gone (the table below reaches unexported types through
// it).
func fieldType(t *testing.T, st reflect.Type, name string) reflect.Type {
	t.Helper()
	f, ok := st.FieldByName(name)
	if !ok {
		t.Fatalf("%v has no field %s", st, name)
	}
	return f.Type
}

// TestStateFieldCoverage fails when a live struct gains a field its
// snapshot state neither carries nor lists as deliberately dropped: a
// field added to a component but not to its state is a silent resume
// bug that only a randomized round trip might catch.
func TestStateFieldCoverage(t *testing.T) {
	memSt := reflect.TypeOf(dram.MemState{})
	chanSt := fieldType(t, memSt, "Channels").Elem()
	rankSt := fieldType(t, chanSt, "Ranks").Elem()
	engSt := reflect.TypeOf(nda.EngineState{})
	fsmSt := fieldType(t, engSt, "Ranks").Elem().Elem()
	rankNDA := reflect.TypeOf(nda.RankNDA{})
	hier := reflect.TypeOf(cache.Hierarchy{})
	hierSt := reflect.TypeOf(cache.HierarchyState{})
	core := reflect.TypeOf(cpu.Core{})

	tables := []stateCoverage{
		{live: core, state: reflect.TypeOf(cpu.CoreState{}),
			carriedBy: map[string]string{"ents": "Rob"}, // Rob holds exactly the live entries
			skip:      map[string]notCarried{"ID": config, "trace": config, "hier": config, "doneFns": closure}},
		{live: fieldType(t, core, "rob").Elem()},
		{live: reflect.TypeOf(mc.Controller{}), state: reflect.TypeOf(mc.ControllerState{}),
			skip: map[string]notCarried{
				"mem": config, "channel": config,
				"bpr": config, "bgShift": config, "refSched": config,
				"free": pool, "csink": closure,
				"sweepHz": schedMem, "hint": schedMem, "hintValid": schedMem, "hintVer": schedMem,
				"hintRowSeq": schedMem, "ver": schedMem, "seen": schedMem, "seenGen": schedMem,
			}},
		{live: reflect.TypeOf(stats.IdleHist{})},
		{live: hier, state: hierSt,
			carriedBy: map[string]string{"pending": "MSHRs"},
			skip: map[string]notCarried{
				"cfg": config, "backend": config, "clock": config, "maxWaiters": config, "mshrFree": pool,
				"stalls": rearmed, "llcVer": rearmed,
			}},
		{live: reflect.TypeOf(cache.Cache{}), state: fieldType(t, hierSt, "LLC"),
			skip: map[string]notCarried{
				"cfg": config, "nsets": config, "smask": config, "shift": config, "ways": config, "top": config,
			}},
		{live: rankNDA, state: engSt,
			carriedBy: map[string]string{"fsm": "Ranks"},
			skip: map[string]notCarried{
				"Channel": config, "Rank": config, "cfg": config, "stochCut": config,
				"mem": config, "host": config, "replica": config, "csink": closure,
				"sleepUntil": schedMem, "sleepStale": schedMem, "derivedVer": schedMem,
			}},
		{live: fieldType(t, rankNDA, "fsm"), state: fsmSt,
			carriedBy: map[string]string{"coin": "RNGDraws"}},
		// An op rebuilds from its blueprint tag and replays its cursors.
		{live: reflect.TypeOf(nda.Op{}), state: fieldType(t, fsmSt, "Ops").Elem(),
			carriedBy: map[string]string{
				"Kind": "Tag", "Reads": "Tag", "Writes": "Tag", "Guard": "Tag", "Done": "Tag", "TotalReads": "Tag",
				"operand": "Fetched", "inOperand": "Fetched",
			}},
		{live: reflect.TypeOf(ndart.Runtime{}), state: reflect.TypeOf(ndart.RuntimeState{}),
			carriedBy: map[string]string{"pendingLaunches": "Launches", "Launches": "NLaunches"},
			skip: map[string]notCarried{
				"os": config, "mapper": config, "geom": config, "eng": config, "mcs": config,
				"MaxBlocksPerInstr": config, "GuardOps": config,
				"now": closure, "decodeCache": schedMem,
				"restored": memOnly,
			}},
		// The carried position is the core's: Snapshot replays the batch
		// being read from the cursor its fill started at. Every field of
		// the lookahead past that position is re-derived by Restore.
		{live: reflect.TypeOf(workload.Generator{}), state: reflect.TypeOf(workload.GenState{}),
			skip: map[string]notCarried{
				"prof": config, "base": config,
				"serCut": config, "memCut": config, "streamCut": config, "writeCut": config,
				"rec":   refilled, // the record being read: the first of the refilled batch
				"pos":   refilled, // its index: 1 after the refill
				"cur":   refilled, // the batch being read: the first refilled one
				"next":  refilled, // the batch filling: the second refilled one
				"ahead": refilled, // the fill's cursor: the carried Draws and Streams, then advanced by the refill
				"bufs":  refilled, // both batches' records and start cursors: drawn again from the carried position
				"done":  handoff,  // the fill's completion signal: Restore receives the one in flight
				"fill":  closure,  // the per-batch goroutine's body
			}},
		{live: reflect.TypeOf(osmem.Allocator{}), state: fieldType(t, reflect.TypeOf(osmem.OSState{}), "Host"),
			skip: map[string]notCarried{"minOrder": config}},
		{live: chanSt, skip: map[string]notCarried{"rowLog": memOnly, "rowSeq": memOnly}},
		{live: rankSt},
		{live: fieldType(t, rankSt, "Banks").Elem()},
		{live: fieldType(t, rankSt, "BGs").Elem()},
	}
	for _, tc := range tables {
		if tc.state == nil {
			tc.state = tc.live
		}
		for name := range tc.skip {
			if _, ok := tc.live.FieldByName(name); !ok {
				t.Errorf("%v: skip lists %s, which the struct no longer has", tc.live, name)
			}
		}
		for i := 0; i < tc.live.NumField(); i++ {
			f := tc.live.Field(i)
			if _, ok := tc.skip[f.Name]; ok {
				continue
			}
			if tc.state == tc.live {
				if !f.IsExported() || f.Tag.Get("json") == "-" {
					t.Errorf("%v.%s is not encoded: export it or list why it is not carried", tc.live, f.Name)
				}
				continue
			}
			want := tc.carriedBy[f.Name]
			if want == "" {
				want = f.Name
			}
			if _, ok := tc.state.FieldByNameFunc(func(s string) bool { return strings.EqualFold(s, want) }); !ok {
				t.Errorf("%v.%s is not carried by %v: add it to the state or list why it is not carried", tc.live, f.Name, tc.state)
			}
		}
	}
}
