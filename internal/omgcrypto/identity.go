package omgcrypto

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"io"
)

// IdentityKeySize is the RSA modulus size of identity keys. 2048 bits is the
// paper-era baseline for device attestation keys.
const IdentityKeySize = 2048

// Identity is an RSA signing/decryption key pair with a human-readable
// subject, used for the device-vendor root, the platform key, model vendors
// and per-enclave keys. Every one of them comes from DeterministicRSAKey.
type Identity struct {
	Subject string
	Private *rsa.PrivateKey
}

// NewIdentity creates an IdentityKeySize-bit RSA identity from exactly 32
// bytes of rng (Rand if nil), through DeterministicRSAKey. A seeded reader
// therefore always gives the same key, and the reader's later output does
// not depend on how long the prime search ran. With Rand the key is as
// strong as its 256-bit seed.
func NewIdentity(rng io.Reader, subject string) (*Identity, error) {
	seed, err := RandomBytes(rng, 32)
	if err != nil {
		return nil, fmt.Errorf("omgcrypto: seeding identity %q: %w", subject, err)
	}
	key, err := DeterministicRSAKey(seed, IdentityKeySize)
	if err != nil {
		return nil, fmt.Errorf("omgcrypto: generating identity %q: %w", subject, err)
	}
	return &Identity{Subject: subject, Private: key}, nil
}

// Public returns the DER encoding (PKIX) of the identity's public key. DER
// is used as the canonical byte form everywhere a public key is hashed,
// signed, or fed into a KDF.
func (id *Identity) Public() []byte {
	der, err := x509.MarshalPKIXPublicKey(&id.Private.PublicKey)
	if err != nil {
		// Marshalling a valid in-memory RSA key cannot fail.
		panic("omgcrypto: marshal public key: " + err.Error())
	}
	return der
}

// Sign produces an RSA PKCS#1 v1.5 signature over SHA-256(message).
func (id *Identity) Sign(message []byte) ([]byte, error) {
	digest := sha256.Sum256(message)
	return rsa.SignPKCS1v15(nil, id.Private, crypto.SHA256, digest[:])
}

// Verify checks a PKCS#1 v1.5 signature over SHA-256(message) against a DER
// public key.
func Verify(pubDER, message, sig []byte) error {
	pub, err := ParsePublicKey(pubDER)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(message)
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], sig); err != nil {
		return fmt.Errorf("omgcrypto: signature verification failed: %w", err)
	}
	return nil
}

// ParsePublicKey decodes a PKIX DER RSA public key.
func ParsePublicKey(der []byte) (*rsa.PublicKey, error) {
	pub, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("omgcrypto: parsing public key: %w", err)
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("omgcrypto: public key is %T, want RSA", pub)
	}
	return rsaPub, nil
}

// WrapKey encrypts a symmetric key to the holder of pubDER with RSA-OAEP
// (SHA-256). OMG's vendor uses this to deliver KU to the attested enclave.
func WrapKey(rng io.Reader, pubDER, key []byte) ([]byte, error) {
	if rng == nil {
		rng = Rand
	}
	pub, err := ParsePublicKey(pubDER)
	if err != nil {
		return nil, err
	}
	return rsa.EncryptOAEP(sha256.New(), rng, pub, key, []byte("omg-key-wrap"))
}

// UnwrapKey decrypts a wrapped symmetric key with the identity's private key.
func (id *Identity) UnwrapKey(wrapped []byte) ([]byte, error) {
	key, err := rsa.DecryptOAEP(sha256.New(), nil, id.Private, wrapped, []byte("omg-key-wrap"))
	if err != nil {
		return nil, fmt.Errorf("omgcrypto: unwrapping key: %w", err)
	}
	return key, nil
}

// KeyFingerprint returns SHA-256 over a DER public key, used as a compact
// identity handle in logs and license tables.
func KeyFingerprint(pubDER []byte) [32]byte {
	return sha256.Sum256(pubDER)
}
