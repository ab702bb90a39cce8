// Package rescache is the persistent, content-addressed result cache behind
// the serving layer. Every simulation in this repository is deterministic: a
// run is a pure function of its full configuration (machine spec, OS
// parameters, dataset identity, query, process count, every workload knob).
// rescache exploits that by digesting the canonical configuration and using
// the digest to key
//
//   - a two-tier (memory + disk) store of result JSON that survives daemon
//     restarts, and
//   - a singleflight table so N concurrent identical requests cost one
//     simulation, with a cancellation-aware lifecycle: the underlying run is
//     aborted only when the *last* waiter has gone.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"dssmem/internal/machine"
	"dssmem/internal/simos"
	"dssmem/internal/workload"
)

// Digest is a hex-encoded SHA-256 content address.
type Digest string

// Short returns an abbreviated digest for logs and error messages.
func (d Digest) Short() string {
	if len(d) > 12 {
		return string(d[:12])
	}
	return string(d)
}

// requestSchema versions the canonical encoding; bump it whenever the Request
// shape, the encoding, or the simulation semantics behind it change, so stale
// disk caches miss instead of serving results of a different model.
const requestSchema = 1

// Request is the exhaustive canonical description of one workload run. Two
// runs with equal Requests produce byte-identical Measurement JSON, so the
// Request digest is a sound content address for the result.
//
// Deliberately excluded: workload.Options.Data (the dataset is identified by
// its generator inputs SF and Seed — the generator is deterministic),
// workload.Options.Obs (observation is passive and never perturbs results)
// and workload.Options.Program (code, not data: experiments.Env.MeasureCached
// refuses to cache a run that sets one).
type Request struct {
	Schema   int          `json:"schema"`
	DataSF   float64      `json:"data_sf"`
	DataSeed uint64       `json:"data_seed"`
	Spec     machine.Spec `json:"spec"`
	// OS and Quantum are always zero, as every request has always carried
	// them: no workload option sets either any more, and keeping them in the
	// encoding keeps every digest, and so every stored entry, valid.
	OS              simos.Config `json:"os"`
	Quantum         uint64       `json:"quantum"`
	Query           string       `json:"query"`
	Processes       int          `json:"processes"`
	Validate        bool         `json:"validate"`
	SpinLimit       int          `json:"spin_limit"`
	BufHeaderBytes  int          `json:"buf_header_bytes"`
	OSTimeScale     int          `json:"os_time_scale"`
	HintBitFraction float64      `json:"hint_bit_fraction"`
	Trial           int          `json:"trial"`
	ColdRun         bool         `json:"cold_run"`
	// SampleQuanta > 1 selects SMARTS interval sampling: counters are
	// estimates, so sampled results must never share an address with exact
	// ones. omitempty keeps every exact request's digest byte-stable with
	// pre-sampling caches.
	SampleQuanta int `json:"sample_quanta,omitempty"`
}

// CanonicalRequest builds the Request for opts run over the dataset generated
// by tpch.Generate(sf, seed).
func CanonicalRequest(sf float64, seed uint64, opts workload.Options) Request {
	return Request{
		Schema:          requestSchema,
		DataSF:          sf,
		DataSeed:        seed,
		Spec:            opts.Spec,
		Query:           CanonicalString(opts.Query.String()),
		Processes:       opts.Processes,
		Validate:        opts.Validate,
		SpinLimit:       opts.SpinLimit,
		BufHeaderBytes:  opts.BufHeaderBytes,
		OSTimeScale:     opts.OSTimeScale,
		HintBitFraction: opts.HintBitFraction,
		Trial:           opts.Trial,
		ColdRun:         opts.ColdRun,
		SampleQuanta:    opts.SampleQuanta,
	}
}

// CanonicalString maps a string to the form that survives a JSON round trip
// byte-for-byte. Go's encoder writes invalid UTF-8 bytes as a six-byte
// backslash-u escape of U+FFFD but a decoded U+FFFD literally, so a digest
// over a string
// with invalid bytes would change after one decode/re-encode cycle;
// replacing invalid bytes up front (idempotently) removes the instability.
// Found by FuzzDigestCanonical. Identity strings in practice (query names)
// are always valid UTF-8, so this is a no-op on the production path.
func CanonicalString(s string) string {
	return strings.ToValidUTF8(s, "�")
}

// Digest returns the request's content address.
func (r Request) Digest() Digest {
	d, err := DigestJSON(r)
	if err != nil {
		// A Request is plain data (numbers, strings, bools); encoding cannot
		// fail short of memory corruption.
		panic(fmt.Sprintf("rescache: request digest: %v", err))
	}
	return d
}

// DigestOptions returns the content address keying the results of one
// workload run (see CanonicalRequest for what identifies a run).
func DigestOptions(sf float64, seed uint64, opts workload.Options) Digest {
	return CanonicalRequest(sf, seed, opts).Digest()
}

// DigestJSON content-addresses any JSON-encodable value. Go's encoding/json
// emits struct fields in declaration order, so a fixed struct type is a
// stable canonical form; callers embed a schema version to guard against
// shape changes.
func DigestJSON(v any) (Digest, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return Digest(hex.EncodeToString(sum[:])), nil
}
