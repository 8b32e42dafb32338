package omgcrypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/x509"
	"testing"
)

// FuzzParsePublicKey fuzzes the key decoder that every Verify runs over a
// public key that arrived from outside: a certificate's subject key, an
// attestation report's enclave key, or a vendor key pinned in an image.
// For any key bytes and signature, ParsePublicKey and Verify never panic,
// and the signature round-trip (Sign, then Verify) succeeds only for the
// genuine key and the genuine signature.
func FuzzParsePublicKey(f *testing.F) {
	id, err := NewIdentity(NewDRBG("fuzz-parse-public-key"), "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	msg := []byte("omg-fuzz-message")
	sig, err := id.Sign(msg)
	if err != nil {
		f.Fatal(err)
	}
	genuine := id.Public()
	edDER, err := x509.MarshalPKIXPublicKey(ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)).Public())
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(genuine)
	flipped[len(flipped)-1] ^= 1 // the public exponent's last byte
	f.Add(genuine, sig)
	f.Add(genuine, sig[:len(sig)-1])
	f.Add(genuine[:len(genuine)/2], sig)
	f.Add(flipped, sig)
	f.Add(edDER, sig)
	f.Add([]byte{}, []byte{})
	want, err := ParsePublicKey(genuine)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, der, s []byte) {
		pub, perr := ParsePublicKey(der)
		verr := Verify(der, msg, s)
		if perr != nil && verr == nil {
			t.Fatalf("Verify accepted a key ParsePublicKey refuses: %v", perr)
		}
		if verr != nil {
			return
		}
		if !pub.Equal(want) || !bytes.Equal(s, sig) {
			t.Fatalf("Verify accepted a %d-byte key and %d-byte signature that are not the genuine pair", len(der), len(s))
		}
	})
}
