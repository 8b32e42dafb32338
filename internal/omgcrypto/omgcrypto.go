// Package omgcrypto provides the cryptographic substrate of the OMG
// protocol: HKDF key derivation, AES-256-GCM envelopes for model
// confidentiality, RSA-2048 identities with a minimal certificate hierarchy
// (device vendor root → platform key → enclave key, §V), signed attestation
// reports, and RSA-OAEP key wrapping for license-key delivery.
//
// All primitives come from the Go standard library. Randomness is injectable
// so that simulations and tests are reproducible; production call sites use
// crypto/rand.Reader. Every RSA key, enclave or not, is derived from a
// 32-byte seed by DeterministicRSAKey, so a run seeded through NewDRBG
// derives the same keys every time.
package omgcrypto

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"io"
)

// Rand is the randomness source used by key generation helpers that do not
// take an explicit reader. Tests may replace it with a DRBG for determinism.
var Rand io.Reader = rand.Reader

// DRBG is a deterministic random bit generator built from HMAC-SHA256 in
// counter mode. It exists so simulations produce identical keys and nonces
// run after run; it must never be used where real unpredictability is
// required.
type DRBG struct {
	key     [32]byte
	counter uint64
	buf     []byte
}

// NewDRBG seeds a deterministic generator from an arbitrary string.
func NewDRBG(seed string) *DRBG {
	d := &DRBG{}
	d.key = sha256.Sum256([]byte("omg-drbg-seed:" + seed))
	return d
}

// Read implements io.Reader with a deterministic stream.
func (d *DRBG) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(d.buf) == 0 {
			mac := hmac.New(sha256.New, d.key[:])
			var ctr [8]byte
			binary.BigEndian.PutUint64(ctr[:], d.counter)
			d.counter++
			mac.Write(ctr[:])
			d.buf = mac.Sum(nil)
		}
		c := copy(p, d.buf)
		d.buf = d.buf[c:]
		p = p[c:]
	}
	return n, nil
}

// HKDF derives length bytes from the input keying material ikm with the
// given salt and info, per RFC 5869 with SHA-256.
func HKDF(ikm, salt, info []byte, length int) []byte {
	// Extract.
	if salt == nil {
		salt = make([]byte, sha256.Size)
	}
	ext := hmac.New(sha256.New, salt)
	ext.Write(ikm)
	prk := ext.Sum(nil)
	// Expand.
	var (
		out  []byte
		prev []byte
	)
	for i := byte(1); len(out) < length; i++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(prev)
		exp.Write(info)
		exp.Write([]byte{i})
		prev = exp.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// RandomBytes returns n random bytes from r (Rand if r is nil).
func RandomBytes(r io.Reader, n int) ([]byte, error) {
	if r == nil {
		r = Rand
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
