// Durable on-disk codec for Checkpoint. The file is a versioned binary
// envelope around a deterministic JSON payload:
//
//	magic "CHOPIMCK" | version u32 LE | config fingerprint (32 B)
//	| payload length u64 LE | payload | SHA-256 digest (32 B)
//
// and the payload itself is two sections:
//
//	hierarchy length u64 LE | hierarchy JSON | core JSON
//
// The payload is the component snapshot states themselves: each State
// type's exported fields are its durable form, written by plain
// encoding/json. They hold the same durable identities — launch tags,
// ROB slots, blueprint indices, RNG draw counts — the in-memory restore
// resolves closures from, so a decoded checkpoint feeds the ordinary
// Restore path unchanged and the reloaded system continues
// bit-identically in a fresh process. The one codec is the cache
// hierarchy's (cache.HierarchyState.MarshalJSON), which packs cache
// lines into varint blobs. Those blobs dominate a checkpoint's bytes,
// and encoding/json re-compacts every nested MarshalJSON result byte by
// byte — embedding the hierarchy in the core document would re-scan
// those megabytes on every periodic checkpoint write, multiplying the
// encode cost several-fold. Carrying it as its own length-prefixed
// section keeps the write cheap enough for a live checkpoint cadence;
// the digest trailer still covers both sections.
//
// The digest trailer covers every preceding byte: a torn write, a
// flipped bit, or a stale partial file surfaces as ErrCorruptCheckpoint
// at load time, never as a half-restored system. The fingerprint pins
// the simulated configuration (observation and robustness knobs
// excluded, exactly the fields Restore tolerates differing); restoring
// under a different config is ErrCheckpointMismatch, a caller bug
// distinct from file damage.
package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"chopim/internal/atomicio"
	"chopim/internal/cache"
)

// Checkpoint file corruption vs misuse: corruption (truncation, bad
// magic, digest mismatch, undecodable payload) means the file cannot be
// trusted and the caller should recompute; mismatch means the file is
// intact but belongs to a different simulated configuration.
var (
	ErrCorruptCheckpoint  = errors.New("sim: corrupt checkpoint file")
	ErrCheckpointMismatch = errors.New("sim: checkpoint config fingerprint mismatch")
)

var ckptMagic = [8]byte{'C', 'H', 'O', 'P', 'I', 'M', 'C', 'K'}

// ckptVersion is the file format version; bump on any wire change.
const ckptVersion = 5

// ckptHeaderLen is magic + version + fingerprint + payload length.
const ckptHeaderLen = 8 + 4 + sha256.Size + 8

// StateConfig returns cfg with the state-free knobs zeroed: invariant
// checking, robustness limits, and the cancel flag neither
// affect simulated state nor survive a process anyway, and Restore
// accepts any of them differing. Every fingerprint or cache key over a
// config hashes this projection.
func StateConfig(cfg Config) Config {
	cfg.CheckInvariants = false
	cfg.WatchdogWindow = 0
	cfg.MaxCycles = 0
	cfg.MaxWallClock = 0
	cfg.Cancel = nil
	return cfg
}

// ConfigFingerprint hashes the simulated configuration (StateConfig).
// Two configs with equal fingerprints produce interchangeable
// checkpoint files.
func ConfigFingerprint(cfg Config) ([sha256.Size]byte, error) {
	b, err := json.Marshal(StateConfig(cfg))
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("sim: fingerprint config: %w", err)
	}
	return sha256.Sum256(b), nil
}

// EncodeCheckpoint serializes a checkpoint taken under cfg into the
// envelope format. The bytes are self-validating (digest trailer) and
// position-independent — write them anywhere, load them in any process.
func EncodeCheckpoint(cfg Config, ck *Checkpoint) ([]byte, error) {
	fp, err := ConfigFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	var hier []byte
	if ck.hier != nil {
		if hier, err = ck.hier.MarshalJSON(); err != nil {
			return nil, fmt.Errorf("sim: encode checkpoint hierarchy: %w", err)
		}
	}
	core, err := json.Marshal(&ck.st)
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	plen := 8 + len(hier) + len(core)
	b := make([]byte, 0, ckptHeaderLen+plen+sha256.Size)
	b = append(b, ckptMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ckptVersion)
	b = append(b, fp[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(plen))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(hier)))
	b = append(b, hier...)
	b = append(b, core...)
	digest := sha256.Sum256(b)
	b = append(b, digest[:]...)
	return b, nil
}

// DecodeCheckpoint validates and decodes an envelope produced by
// EncodeCheckpoint. Any structural damage — truncation, wrong magic or
// version, digest mismatch, undecodable payload — reports
// ErrCorruptCheckpoint; an intact file for a different configuration
// reports ErrCheckpointMismatch. Validation runs before any state is
// built, so a damaged file can never half-populate a Checkpoint.
func DecodeCheckpoint(cfg Config, b []byte) (*Checkpoint, error) {
	if len(b) < ckptHeaderLen+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorruptCheckpoint, len(b))
	}
	if !bytes.Equal(b[:8], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != ckptVersion {
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrCorruptCheckpoint, v, ckptVersion)
	}
	plen := binary.LittleEndian.Uint64(b[ckptHeaderLen-8 : ckptHeaderLen])
	if uint64(len(b)) != uint64(ckptHeaderLen)+plen+sha256.Size {
		return nil, fmt.Errorf("%w: payload length %d does not match file size %d", ErrCorruptCheckpoint, plen, len(b))
	}
	body := b[:len(b)-sha256.Size]
	digest := sha256.Sum256(body)
	if !bytes.Equal(digest[:], b[len(b)-sha256.Size:]) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorruptCheckpoint)
	}
	fp, err := ConfigFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(fp[:], b[12:12+sha256.Size]) {
		return nil, ErrCheckpointMismatch
	}
	payload := b[ckptHeaderLen : len(b)-sha256.Size]
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: payload shorter than its section header", ErrCorruptCheckpoint)
	}
	hlen := binary.LittleEndian.Uint64(payload[:8])
	if hlen > uint64(len(payload)-8) {
		return nil, fmt.Errorf("%w: hierarchy section length %d exceeds payload", ErrCorruptCheckpoint, hlen)
	}
	var hier *cache.HierarchyState
	if hlen > 0 {
		hier = new(cache.HierarchyState)
		if err := hier.UnmarshalJSON(payload[8 : 8+hlen]); err != nil {
			return nil, fmt.Errorf("%w: hierarchy section: %v", ErrCorruptCheckpoint, err)
		}
	}
	ck := &Checkpoint{hier: hier}
	if err := json.Unmarshal(payload[8+hlen:], &ck.st); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorruptCheckpoint, err)
	}
	if st := &ck.st; st.DRAM == nil || st.OS == nil || st.Eng == nil || st.RT == nil {
		return nil, fmt.Errorf("%w: payload missing a required component", ErrCorruptCheckpoint)
	}
	return ck, nil
}

// SaveCheckpoint durably persists the checkpoint at path: the envelope
// is written to a temp file, fsynced, and renamed into place, so a
// crash at any instant leaves either the previous file or the complete
// new one — never a torn mixture.
func SaveCheckpoint(path string, cfg Config, ck *Checkpoint) error {
	b, err := EncodeCheckpoint(cfg, ck)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, b)
}

// LoadCheckpoint reads and validates the checkpoint at path.
func LoadCheckpoint(path string, cfg Config) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(cfg, b)
}
