// Content-addressed result cache. Figures are pure functions of their
// options (the runner proves bit-identical tables for every worker
// count), so a figure's rows can be cached under a hash of everything
// they depend on and replayed without simulating. While a figure runs,
// each sweep point it completes is an entry of the same cache, so an
// interrupted run resumes at the last completed point instead of the
// first; the figure's own entry supersedes its points once it completes.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"chopim/internal/atomicio"
	"chopim/internal/faults"
)

// cacheSchema names the simulation-model version baked into every cache
// key. Bump it whenever a change alters any figure's numbers, so entries
// written by older binaries can never satisfy a lookup.
const cacheSchema = "chopim-results-v1"

// cacheKey fingerprints everything a figure's rows depend on: the model
// version, the figure name, and the options that select simulated
// behavior. Parallel is deliberately excluded — results are
// bit-identical for any worker count.
func (o Options) cacheKey(fig string) string {
	k := struct {
		Schema        string
		Fig           string
		WarmCycles    int64
		MeasureCycles int64
		Quick         bool
		CycleByCycle  bool
	}{cacheSchema, fig, o.WarmCycles, o.MeasureCycles, o.Quick, o.CycleByCycle}
	b, err := json.Marshal(k)
	if err != nil {
		panic("experiments: cache key not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// figCached wraps a figure generator with the content-addressed cache.
// With no CacheDir the generator runs directly and nothing is stored.
// With one, a hit deserializes the stored rows and skips simulation
// entirely; a miss runs the generator with a point store, so its
// sweeps replay every point an interrupted run completed. Entries are
// written atomically (temp file + rename), so a killed run never
// leaves a torn cache file.
func figCached[T any](opt Options, fig string, gen func(Options) (T, error)) (T, error) {
	if opt.CacheDir == "" {
		return gen(opt)
	}
	key := opt.cacheKey(fig)
	base := filepath.Join(opt.CacheDir, fig+"-"+key[:20])
	if v, ok := readEntry[T](base+".json", key); ok {
		statCacheHits.Add(1)
		return v, nil
	}
	// Missing, corrupt or foreign entry: regenerate it.
	statCacheMisses.Add(1)
	opt.points = &pointStore{dir: base + ".points", key: key}
	v, err := gen(opt)
	if err != nil {
		var zero T
		return zero, err
	}
	// The figure entry supersedes its points once it is durable; a
	// failed removal only leaves entries no lookup reaches again.
	if writeEntry(base+".json", key, v) {
		_ = os.RemoveAll(opt.points.dir)
	}
	return v, nil
}

// cacheEnvelope wraps a cache entry's rows with everything needed to
// prove them trustworthy on read-back: the model schema, the full cache
// key (the filename only embeds a prefix), and a checksum of the rows.
// Any mismatch — truncation, bit flips, a hand-edited file, an entry
// written under a colliding filename — reads as a miss and the figure
// recomputes; a corrupt cache can slow a run but never change a table.
type cacheEnvelope struct {
	Schema string
	Key    string
	Sum    string // hex sha256 of Rows
	Rows   json.RawMessage
}

func encodeCacheEntry[T any](key string, v T) ([]byte, bool) {
	rows, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(rows)
	b, err := json.Marshal(cacheEnvelope{
		Schema: cacheSchema,
		Key:    key,
		Sum:    hex.EncodeToString(sum[:]),
		Rows:   rows,
	})
	return b, err == nil
}

// decodeCacheEntry verifies an on-disk entry end to end before trusting
// it. Every failure mode is a miss, never an error: the cache is an
// accelerator, not a correctness dependency.
func decodeCacheEntry[T any](key string, b []byte) (T, bool) {
	var zero T
	var env cacheEnvelope
	if json.Unmarshal(b, &env) != nil ||
		env.Schema != cacheSchema || env.Key != key {
		return zero, false
	}
	sum := sha256.Sum256(env.Rows)
	if hex.EncodeToString(sum[:]) != env.Sum {
		return zero, false
	}
	var v T
	if json.Unmarshal(env.Rows, &v) != nil {
		return zero, false
	}
	return v, true
}

// readEntry reads and verifies the entry at path: a missing, corrupt
// or foreign entry is a miss.
func readEntry[T any](path, key string) (T, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, false
	}
	return decodeCacheEntry[T](key, b)
}

// writeEntry stores v at path through the shared atomic-replace helper
// (temp file + fsync + rename) and reports whether the entry is now
// durable. A failure is not an error: the cache is an accelerator,
// never a correctness dependency.
func writeEntry[T any](path, key string, v T) bool {
	b, ok := encodeCacheEntry(key, v)
	return ok && atomicio.WriteFile(path, b) == nil
}

// pointStore keeps one figure's completed sweep points while the figure
// runs, each a cache entry of its own at <dir>/<seq>-<n>-<i>.json: seq
// numbers the figure's sharded calls in call order (deterministic —
// figure bodies call sharded sequentially), n is the sweep width and i
// the point index. A nil store keeps nothing.
type pointStore struct {
	dir string // <CacheDir>/<fig>-<key[:20]>.points
	key string // the figure's cache key
	seq atomic.Int64
}

// pointSweep addresses one sharded call's entries: both fields end in
// "<seq>-<n>-", so a point under another sweep width is another entry.
type pointSweep struct{ path, key string }

// sweep numbers the figure's next sharded call, of width n.
func (ps *pointStore) sweep(n int) *pointSweep {
	if ps == nil {
		return nil
	}
	id := fmt.Sprintf("%d-%d-", ps.seq.Add(1)-1, n)
	return &pointSweep{path: filepath.Join(ps.dir, id), key: ps.key + "/" + id}
}

// entry returns point i's file and the key its envelope binds.
func (sw *pointSweep) entry(i int) (path, key string) {
	s := strconv.Itoa(i)
	return sw.path + s + ".json", sw.key + s
}

// loadPoint returns point i's result if an intact entry holds it.
func loadPoint[T any](sw *pointSweep, i int) (T, bool) {
	if sw == nil {
		var zero T
		return zero, false
	}
	return readEntry[T](sw.entry(i))
}

// storePoint stores point i's result. A result that cannot be marshaled
// (a NaN, say) is not stored, and a later run recomputes just it.
func storePoint[T any](sw *pointSweep, i int, v T) {
	if sw == nil {
		return
	}
	if path, key := sw.entry(i); writeEntry(path, key, v) && faults.Active() {
		// The crash harness (die-after-point) kills the process here,
		// the instant the entry is durable.
		faults.Adjust(faults.PointStored, int64(i))
	}
}
