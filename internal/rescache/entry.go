package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Disk entries are framed so every read is verifiable: a one-line JSON
// header carrying the payload's length and SHA-256, then the payload bytes.
// A flipped bit, a torn write, a truncation — anything that breaks the
// checksum — is detected on read and the entry is quarantined instead of
// served. entrySchema versions the frame itself.
const entrySchema = 1

type entryHeader struct {
	Schema int    `json:"schema"`
	Alg    string `json:"alg"`
	Sum    string `json:"sum"`
	Len    int    `json:"len"`
}

// ErrCorrupt marks a disk entry that failed verification (bad frame, length
// mismatch, or checksum mismatch). Test with errors.Is.
var ErrCorrupt = errors.New("rescache: corrupt entry")

// frame wraps payload in a verifiable on-disk representation.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	h, err := json.Marshal(entryHeader{
		Schema: entrySchema,
		Alg:    "sha256",
		Sum:    hex.EncodeToString(sum[:]),
		Len:    len(payload),
	})
	if err != nil {
		// entryHeader is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("rescache: frame header: %v", err))
	}
	out := make([]byte, 0, len(h)+1+len(payload))
	out = append(out, h...)
	out = append(out, '\n')
	return append(out, payload...)
}

// unframe verifies b and returns its payload. Any verification failure —
// including pre-framing legacy files — returns ErrCorrupt, and the caller
// quarantines and recomputes rather than serving unverified bytes.
func unframe(b []byte) ([]byte, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	var h entryHeader
	if err := json.Unmarshal(b[:nl], &h); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if h.Schema != entrySchema || h.Alg != "sha256" {
		return nil, fmt.Errorf("%w: unsupported frame (schema %d, alg %q)", ErrCorrupt, h.Schema, h.Alg)
	}
	payload := b[nl+1:]
	if len(payload) != h.Len {
		return nil, fmt.Errorf("%w: length %d, header says %d", ErrCorrupt, len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}
