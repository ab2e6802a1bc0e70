package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// corruptions is the shared mutation table: every way a figure or point
// entry on disk can rot — truncation, garbage, bit flips at every
// position — must read back as a miss (recompute), never as wrong rows.
func corruptions(pristine []byte) map[string][]byte {
	muts := map[string][]byte{
		"empty":           {},
		"truncated-half":  pristine[:len(pristine)/2],
		"truncated-tail":  pristine[:len(pristine)-3],
		"garbage":         []byte("!!not json at all\x00\xff"),
		"garbage-prefix":  append([]byte("xx"), pristine...),
		"doubled":         append(append([]byte{}, pristine...), pristine...),
		"wrong-but-valid": []byte(`{"Key":"0000","Sum":"00","Rows":[1]}`),
	}
	// Flip one bit at every fourth byte. A subtest is named by its
	// offset, and the stride does not depend on the entry's length, so an
	// entry that grows or shrinks adds or drops subtests at its tail and
	// renames none.
	for pos := 0; pos < len(pristine); pos += 4 {
		b := append([]byte{}, pristine...)
		b[pos] ^= 0x40
		muts[fmt.Sprintf("bitflip@%d", pos)] = b
	}
	return muts
}

// TestCacheCorruptionRecomputesIdentically writes a cache entry, then
// mutilates the on-disk bytes every way in the table and checks each
// read: the rows handed back are always byte-identical to a clean
// computation, and a detected miss rewrites the entry to exactly its
// pristine bytes.
func TestCacheCorruptionRecomputesIdentically(t *testing.T) {
	dir := t.TempDir()
	opt := Options{CacheDir: dir}
	pristineRows := []int{3, 1, 4, 1, 5, 9, 2, 6}
	var genCalls int
	gen := func(Options) ([]int, error) {
		genCalls++
		return append([]int{}, pristineRows...), nil
	}
	first, err := figCached(opt, "corrfig", gen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, pristineRows) || genCalls != 1 {
		t.Fatalf("seed run: rows=%v calls=%d", first, genCalls)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "corrfig-*.json"))
	if len(files) != 1 {
		t.Fatalf("cache files = %v, want one", files)
	}
	path := files[0]
	pristineBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: an untouched entry replays without the generator.
	calls0 := genCalls
	if v, err := figCached(opt, "corrfig", gen); err != nil || !reflect.DeepEqual(v, pristineRows) || genCalls != calls0 {
		t.Fatalf("clean hit: rows=%v err=%v calls=%d (want %d)", v, err, genCalls, calls0)
	}

	for name, mut := range corruptions(pristineBytes) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			v, err := figCached(opt, "corrfig", gen)
			if err != nil {
				t.Fatalf("corrupt cache surfaced an error: %v", err)
			}
			if !reflect.DeepEqual(v, pristineRows) {
				t.Fatalf("rows after corruption = %v, want %v", v, pristineRows)
			}
			// A detected miss recomputes and rewrites the entry; the
			// rewrite must be byte-identical to the pristine encoding.
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pristineBytes) {
				t.Errorf("rewritten entry differs from pristine encoding:\n got:  %q\n want: %q", got, pristineBytes)
			}
		})
	}
}

// pointRow is the point type TestJournalCorruptionResumesCleanly's
// sweeps store.
type pointRow struct {
	Op        string
	NDABlocks int64
	BWGBs     float64
}

// TestJournalCorruptionResumesCleanly seeds a sweep's point entries,
// then mutilates one point's entry every way in the table and reruns
// the sweep: the mutilated entry reads as a miss and recomputes (and is
// rewritten to its pristine bytes), every intact entry replays, and the
// results are always identical to a clean run.
func TestJournalCorruptionResumesCleanly(t *testing.T) {
	dir := t.TempDir()
	ops := []string{"copy", "dot", "nrm2", "scal", "axpy", "gemv"}
	job := func(i int) (pointRow, error) {
		return pointRow{Op: ops[i], NDABlocks: int64(i*3 + 1), BWGBs: float64(i) / 4}, nil
	}
	want := make([]pointRow, len(ops))
	for i := range want {
		want[i], _ = job(i)
	}
	key := Options{}.cacheKey(exeHash(), "pfig")
	mkOpt := func() Options { return Options{points: &pointStore{dir: dir, key: key}} }
	if v, err := sharded(mkOpt(), len(ops), job); err != nil || !reflect.DeepEqual(v, want) {
		t.Fatalf("seed sweep: %v %v", v, err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "0-6-*.json"))
	if len(files) != len(ops) {
		t.Fatalf("point entries = %v, want %d", files, len(ops))
	}
	path := filepath.Join(dir, "0-6-3.json")
	pristineBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mut := range corruptions(pristineBytes) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			before := ReadRunnerStats()
			v, err := sharded(mkOpt(), len(ops), job)
			if err != nil {
				t.Fatalf("rerun over a corrupt point entry errored: %v", err)
			}
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("results after corruption = %v, want %v", v, want)
			}
			after := ReadRunnerStats()
			if res, jobs := after.Resumed-before.Resumed, after.Jobs-before.Jobs; res != 5 || jobs != 1 {
				t.Fatalf("rerun replayed %d points and simulated %d; want 5 and 1", res, jobs)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pristineBytes) {
				t.Errorf("rewritten entry differs from pristine encoding:\n got:  %q\n want: %q", got, pristineBytes)
			}
		})
	}

	// Entries stored under a different sweep width are other entries:
	// nothing replays, every point recomputes.
	before := ReadRunnerStats()
	if v, err := sharded(mkOpt(), 4, func(i int) (pointRow, error) { return pointRow{NDABlocks: int64(i)}, nil }); err != nil ||
		!reflect.DeepEqual(v, []pointRow{{NDABlocks: 0}, {NDABlocks: 1}, {NDABlocks: 2}, {NDABlocks: 3}}) {
		t.Fatalf("width-changed sweep: %v %v", v, err)
	}
	if res := ReadRunnerStats().Resumed - before.Resumed; res != 0 {
		t.Fatalf("width-changed sweep replayed %d points, want 0", res)
	}
}
