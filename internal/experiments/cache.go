// Content-addressed result cache and sweep-resume journals. Figures are
// pure functions of their options (the runner and executor prove
// bit-identical tables for every worker count), so a figure's rows can
// be cached under a hash of everything they depend on and replayed
// without simulating. Long sweeps additionally journal each completed
// point as it finishes, so an interrupted run resumes at the last
// completed point instead of the first.
package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"chopim/internal/atomicio"
	"chopim/internal/faults"
)

// cacheSchema names the simulation-model version baked into every cache
// key and journal header. Bump it whenever a change alters any figure's
// numbers, so entries written by older binaries can never satisfy a
// lookup.
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

// figCached wraps a figure generator with the content-addressed cache
// and arms the resume journal. With no CacheDir the generator runs
// directly (journals still work); with one, a hit deserializes the
// stored rows and skips simulation entirely. Entries are written
// atomically (temp file + rename), so a killed run never leaves a
// torn cache file.
func figCached[T any](opt Options, fig string, gen func(Options) (T, error)) (T, error) {
	key := opt.cacheKey(fig)
	opt.journal = newJournalCtx(opt, fig, key)
	var zero T
	var path string
	if opt.CacheDir != "" {
		path = filepath.Join(opt.CacheDir, fig+"-"+key[:20]+".json")
		if b, err := os.ReadFile(path); err == nil {
			if v, ok := decodeCacheEntry[T](key, b); ok {
				statCacheHits.Add(1)
				return v, nil
			}
			// Corrupt or foreign entry: fall through and regenerate it.
		}
		statCacheMisses.Add(1)
	}
	v, err := gen(opt)
	if err != nil {
		return zero, err
	}
	// The figure completed: its journals are superseded (and, with a
	// cache, its rows are now replayable from there).
	opt.journal.finish()
	if path != "" {
		if b, ok := encodeCacheEntry(key, v); ok {
			writeFileAtomic(path, b)
		}
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

// writeFileAtomic writes b to path through the shared atomic-replace
// helper (temp file + fsync + rename). Errors are swallowed: the cache
// is an accelerator, never a correctness dependency.
func writeFileAtomic(path string, b []byte) {
	_ = atomicio.WriteFile(path, b)
}

// journalCtx is one figure's resume-journal state, created by figCached
// and threaded to every sharded call through Options. Each sweep the
// figure runs gets its own journal file, numbered in call order (the
// order is deterministic — figure bodies call sharded sequentially).
type journalCtx struct {
	dir    string
	fig    string
	key    string
	resume bool

	mu    sync.Mutex
	seq   int
	files []*journalFile
}

func newJournalCtx(opt Options, fig, key string) *journalCtx {
	if opt.JournalDir == "" {
		return nil
	}
	return &journalCtx{dir: opt.JournalDir, fig: fig, key: key, resume: opt.Resume}
}

// open starts (or, under resume, reopens) the journal for the next
// sweep of this figure. Nil-safe: journaling disabled returns nil.
func (j *journalCtx) open(n int) *journalFile {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	seq := j.seq
	j.seq++
	j.mu.Unlock()
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil
	}
	jf := &journalFile{
		path:   filepath.Join(j.dir, fmt.Sprintf("%s-%d-%s.journal", j.fig, seq, j.key[:20])),
		key:    j.key,
		resume: j.resume,
	}
	j.mu.Lock()
	j.files = append(j.files, jf)
	j.mu.Unlock()
	return jf
}

// finish closes and removes every journal the figure opened: the run
// completed, so there is nothing left to resume.
func (j *journalCtx) finish() {
	if j == nil {
		return
	}
	j.mu.Lock()
	files := j.files
	j.files = nil
	j.mu.Unlock()
	for _, jf := range files {
		jf.mu.Lock()
		if jf.f != nil {
			jf.f.Close()
			jf.f = nil
		}
		jf.mu.Unlock()
		os.Remove(jf.path)
	}
}

// journalFile is one sweep's append-only point log: a header line
// binding it to the options fingerprint and sweep width, then one JSON
// line per completed point, written as points finish (any order under a
// parallel runner — replay is by index).
type journalFile struct {
	path   string
	key    string
	resume bool

	mu   sync.Mutex
	f    *os.File
	dead bool // a point failed to marshal; journaling disabled for this sweep
}

type journalHeader struct {
	Key string
	N   int
}

type journalLine struct {
	I int
	R json.RawMessage
	C uint32 // journalCRC(I, R); 0 in pre-checksum journals, which therefore never replay
}

// journalCRC checksums one journal record: the point index (little-
// endian, so index corruption is caught even when the row survives)
// followed by the row bytes.
func journalCRC(i int, r []byte) uint32 {
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(i))
	c := crc32.ChecksumIEEE(idx[:])
	return crc32.Update(c, crc32.IEEETable, r)
}

// journalLoad replays a journal into results and returns the
// completed-point mask, then leaves the file open for appending. A
// header mismatch (different options, different sweep width, older
// model version) discards the journal and starts fresh; a torn tail
// line — the point being written when the run was killed — truncates
// replay there.
func journalLoad[T any](jf *journalFile, results []T) []bool {
	if jf == nil {
		return nil
	}
	done := make([]bool, len(results))
	valid := false
	if jf.resume {
		if b, err := os.ReadFile(jf.path); err == nil {
			lines := bytes.Split(b, []byte("\n"))
			var hdr journalHeader
			if len(lines) > 0 && json.Unmarshal(lines[0], &hdr) == nil &&
				hdr.Key == jf.key && hdr.N == len(results) {
				valid = true
				for _, ln := range lines[1:] {
					if len(bytes.TrimSpace(ln)) == 0 {
						continue
					}
					var rec journalLine
					if json.Unmarshal(ln, &rec) != nil ||
						rec.I < 0 || rec.I >= len(results) ||
						rec.C != journalCRC(rec.I, rec.R) {
						break
					}
					var v T
					if json.Unmarshal(rec.R, &v) != nil {
						break
					}
					results[rec.I] = v
					if !done[rec.I] {
						done[rec.I] = true
						statResumed.Add(1)
					}
				}
			}
		}
	}
	flag := os.O_CREATE | os.O_WRONLY
	if valid {
		flag |= os.O_APPEND
	} else {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(jf.path, flag, 0o644)
	if err != nil {
		jf.dead = true
		return done
	}
	jf.f = f
	if !valid {
		hb, _ := json.Marshal(journalHeader{Key: jf.key, N: len(results)})
		f.Write(append(hb, '\n'))
	}
	return done
}

// journalRecord appends one completed point. A result type that cannot
// marshal disables journaling for the sweep (resume would replay
// garbage); simulation is unaffected.
func journalRecord[T any](jf *journalFile, i int, v T) {
	if jf == nil {
		return
	}
	rb, err := json.Marshal(v)
	if err != nil {
		jf.mu.Lock()
		jf.dead = true
		jf.mu.Unlock()
		return
	}
	line, _ := json.Marshal(journalLine{I: i, R: rb, C: journalCRC(i, rb)})
	jf.mu.Lock()
	defer jf.mu.Unlock()
	if jf.f == nil || jf.dead {
		return
	}
	jf.f.Write(append(line, '\n'))
	// A SIGKILL must not lose a point the sweep believes is journaled:
	// the crash-resume harness (faults.PointJournaled) kills the
	// process the instant this record is durable.
	jf.f.Sync()
	if faults.Active() {
		faults.Adjust(faults.PointJournaled, int64(i))
	}
}
