// Byte codec for Checkpoint. No checkpoint outlives its process: sweep
// resume replays completed points from the result cache. The codec's
// only users are the benchmark's fork check, which measures it
// (per-layer ckpt.* metrics), and the tests, where a decode followed by
// Restore proves a Checkpoint carries every field a fresh process
// would need. The bytes are a versioned binary envelope around one
// JSON payload:
//
//	magic "CHOPIMCK" | version u32 LE | config fingerprint (32 B)
//	| payload length u64 LE | payload | SHA-256 digest (32 B)
//
// The payload is the component snapshot states themselves, written by
// plain encoding/json: each State type's exported fields are its wire
// form, with no per-type codec. They hold the same durable identities —
// launch tags, ROB slots, blueprint indices, RNG draw counts — the
// in-memory restore resolves closures from, so a decoded checkpoint
// feeds the ordinary Restore path unchanged and the reloaded system
// continues bit-identically.
//
// The digest trailer covers every preceding byte: truncation or a
// flipped bit surfaces as ErrCorruptCheckpoint at decode time, never
// as a half-restored system. The fingerprint pins the simulated
// configuration (observation and robustness knobs excluded, exactly
// the fields Restore tolerates differing); decoding under a different
// config is ErrCheckpointMismatch, a caller bug distinct from damage.
package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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

// ckptVersion is the envelope format version. No encoded checkpoint
// outlives the process that wrote it, so a wire change need not bump
// it.
const ckptVersion = 5

// ckptHeaderLen is magic + version + fingerprint + payload length.
const ckptHeaderLen = 8 + 4 + sha256.Size + 8

// StateConfig returns cfg with the state-free knobs zeroed: invariant
// checking and the robustness limits neither affect simulated state
// nor survive a process anyway, and Restore accepts any of them
// differing. Every fingerprint or cache key over a
// config hashes this projection.
func StateConfig(cfg Config) Config {
	cfg.CheckInvariants = false
	cfg.MaxCycles = 0
	cfg.MaxWallClock = 0
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
	payload, err := json.Marshal(&ck.st)
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	b := make([]byte, 0, ckptHeaderLen+len(payload)+sha256.Size)
	b = append(b, ckptMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ckptVersion)
	b = append(b, fp[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
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
	ck := new(Checkpoint)
	if err := json.Unmarshal(body[ckptHeaderLen:], &ck.st); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorruptCheckpoint, err)
	}
	if st := &ck.st; st.DRAM == nil || st.OS == nil || st.Eng == nil || st.RT == nil {
		return nil, fmt.Errorf("%w: payload missing a required component", ErrCorruptCheckpoint)
	}
	return ck, nil
}
