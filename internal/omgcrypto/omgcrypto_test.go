package omgcrypto

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func TestDRBGDeterministic(t *testing.T) {
	a, b := NewDRBG("seed"), NewDRBG("seed")
	ba, bb := make([]byte, 100), make([]byte, 100)
	if _, err := a.Read(ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("same seed produced different streams")
	}
	c := NewDRBG("other")
	bc := make([]byte, 100)
	if _, err := c.Read(bc); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba, bc) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDRBGChunkingIndependence(t *testing.T) {
	a, b := NewDRBG("x"), NewDRBG("x")
	one := make([]byte, 77)
	a.Read(one)
	var pieces []byte
	for _, n := range []int{1, 31, 32, 13} {
		p := make([]byte, n)
		b.Read(p)
		pieces = append(pieces, p...)
	}
	if !bytes.Equal(one, pieces) {
		t.Fatal("stream depends on read chunking")
	}
}

func TestHKDFVector(t *testing.T) {
	// RFC 5869 test case 1 (SHA-256).
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}
	info := []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9}
	want := []byte{
		0x3c, 0xb2, 0x5f, 0x25, 0xfa, 0xac, 0xd5, 0x7a, 0x90, 0x43, 0x4f, 0x64, 0xd0, 0x36, 0x2f, 0x2a,
		0x2d, 0x2d, 0x0a, 0x90, 0xcf, 0x1a, 0x5a, 0x4c, 0x5d, 0xb0, 0x2d, 0x56, 0xec, 0xc4, 0xc5, 0xbf,
		0x34, 0x00, 0x72, 0x08, 0xd5, 0xb8, 0x87, 0x18, 0x58, 0x65,
	}
	got := HKDF(ikm, salt, info, 42)
	if !bytes.Equal(got, want) {
		t.Fatalf("HKDF RFC5869 vector mismatch:\n got %x\nwant %x", got, want)
	}
}

func TestHKDFLengths(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 64, 100} {
		out := HKDF([]byte("ikm"), []byte("salt"), []byte("info"), n)
		if len(out) != n {
			t.Fatalf("len = %d, want %d", len(out), n)
		}
	}
	// Prefix property: longer outputs extend shorter ones.
	short := HKDF([]byte("k"), nil, nil, 16)
	long := HKDF([]byte("k"), nil, nil, 48)
	if !bytes.Equal(short, long[:16]) {
		t.Fatal("HKDF output is not prefix-stable")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	rng := NewDRBG("seal")
	key, _ := RandomBytes(rng, KeySize)
	pt := []byte("49 kB of model weights")
	ad := []byte("version 7")
	env, err := Seal(rng, key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, env, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip mismatch")
	}
}

func TestOpenFailsClosed(t *testing.T) {
	rng := NewDRBG("fail")
	key, _ := RandomBytes(rng, KeySize)
	otherKey, _ := RandomBytes(rng, KeySize)
	env, err := Seal(rng, key, []byte("secret"), []byte("ad"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(otherKey, env, []byte("ad")); err != ErrDecrypt {
		t.Fatalf("wrong key: err = %v, want ErrDecrypt", err)
	}
	if _, err := Open(key, env, []byte("other ad")); err != ErrDecrypt {
		t.Fatalf("wrong AD: err = %v, want ErrDecrypt", err)
	}
	tampered := Envelope{Nonce: env.Nonce, Ciphertext: append([]byte(nil), env.Ciphertext...)}
	tampered.Ciphertext[0] ^= 1
	if _, err := Open(key, tampered, []byte("ad")); err != ErrDecrypt {
		t.Fatalf("tampered: err = %v, want ErrDecrypt", err)
	}
	if _, err := Seal(rng, key[:16], nil, nil); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestEnvelopeMarshalRoundTrip(t *testing.T) {
	f := func(nonce, ct []byte) bool {
		if len(nonce) > 255 {
			nonce = nonce[:255]
		}
		e := Envelope{Nonce: nonce, Ciphertext: ct}
		parsed, err := UnmarshalEnvelope(e.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(parsed.Nonce, nonce) && bytes.Equal(parsed.Ciphertext, ct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if _, err := UnmarshalEnvelope(nil); err == nil {
		t.Fatal("empty envelope parsed")
	}
	if _, err := UnmarshalEnvelope([]byte{200, 1, 2}); err == nil {
		t.Fatal("truncated envelope parsed")
	}
}

// testIdentity caches RSA generation across tests (2048-bit keygen is the
// slowest operation in this package).
var (
	testRoot, testPlatform, testEnclave *Identity
)

func identities(t *testing.T) (root, platform, enclave *Identity) {
	t.Helper()
	if testRoot == nil {
		rng := NewDRBG("identity-test")
		var err error
		if testRoot, err = NewIdentity(rng, "device-vendor"); err != nil {
			t.Fatal(err)
		}
		if testPlatform, err = NewIdentity(rng, "platform"); err != nil {
			t.Fatal(err)
		}
		if testEnclave, err = NewIdentity(rng, "enclave"); err != nil {
			t.Fatal(err)
		}
	}
	return testRoot, testPlatform, testEnclave
}

// TestNewIdentitySeeded pins the seeding contract of NewIdentity: readers
// with the same seed give the same keys, and each key consumes exactly 32
// bytes of its reader, so a key draw cannot shift the draws after it (the
// nonces and device secrets a seeded simulation takes next).
func TestNewIdentitySeeded(t *testing.T) {
	a, b, ref := NewDRBG("seeded-identity"), NewDRBG("seeded-identity"), NewDRBG("seeded-identity")
	for i, subject := range []string{"device-vendor", "model-vendor"} {
		ka, err := NewIdentity(a, subject)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := NewIdentity(b, subject)
		if err != nil {
			t.Fatal(err)
		}
		if !ka.Private.Equal(kb.Private) {
			t.Fatalf("identity %d: same seed, different keys", i)
		}
		if ka.Private.N.BitLen() != IdentityKeySize {
			t.Fatalf("identity %d: modulus is %d bits, want %d", i, ka.Private.N.BitLen(), IdentityKeySize)
		}
		// ref stands in for a NewIdentity that read exactly one seed.
		ref.Read(make([]byte, 32))
		na, nb, nref := draw32(a), draw32(b), draw32(ref)
		if !bytes.Equal(na, nb) || !bytes.Equal(na, nref) {
			t.Fatalf("identity %d: draws after the key differ: %x, %x, want %x", i, na, nb, nref)
		}
	}
}

func draw32(d *DRBG) []byte {
	b := make([]byte, 32)
	d.Read(b)
	return b
}

func TestSignVerify(t *testing.T) {
	root, _, _ := identities(t)
	msg := []byte("attest me")
	sig, err := root.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(root.Public(), msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := Verify(root.Public(), []byte("attest you"), sig); err == nil {
		t.Fatal("verified wrong message")
	}
}

func TestWrapUnwrapKey(t *testing.T) {
	_, _, enclave := identities(t)
	rng := NewDRBG("wrap")
	ku, _ := RandomBytes(rng, KeySize)
	wrapped, err := WrapKey(rng, enclave.Public(), ku)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enclave.UnwrapKey(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ku) {
		t.Fatal("unwrap mismatch")
	}
	wrapped[3] ^= 0xFF
	if _, err := enclave.UnwrapKey(wrapped); err == nil {
		t.Fatal("tampered wrap unwrapped")
	}
}

func TestCertificateChain(t *testing.T) {
	root, platform, enclave := identities(t)
	rootCert, err := SelfSign(root)
	if err != nil {
		t.Fatal(err)
	}
	platCert, err := IssueCertificate(root, platform.Subject, platform.Public())
	if err != nil {
		t.Fatal(err)
	}
	enclCert, err := IssueCertificate(platform, enclave.Subject, enclave.Public())
	if err != nil {
		t.Fatal(err)
	}
	leafPub, err := VerifyChain([]*Certificate{enclCert, platCert, rootCert}, root.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leafPub, enclave.Public()) {
		t.Fatal("leaf public key mismatch")
	}
	// A chain not terminating at the trusted root must fail.
	if _, err := VerifyChain([]*Certificate{enclCert, platCert}, platform.Public()); err == nil {
		// platCert is signed by root, not by platform itself, so this is invalid.
		t.Fatal("bogus chain verified")
	}
	// Tampered subject key breaks the signature.
	bad := *enclCert
	bad.PublicKey = append([]byte(nil), bad.PublicKey...)
	bad.PublicKey[10] ^= 1
	if _, err := VerifyChain([]*Certificate{&bad, platCert, rootCert}, root.Public()); err == nil {
		t.Fatal("tampered certificate verified")
	}
	if _, err := VerifyChain(nil, root.Public()); err == nil {
		t.Fatal("empty chain verified")
	}
}

func TestAttestationReport(t *testing.T) {
	root, platform, enclave := identities(t)
	rootCert, _ := SelfSign(root)
	platCert, _ := IssueCertificate(root, platform.Subject, platform.Public())
	chain := []*Certificate{platCert, rootCert}

	m := Measurement(sha256.Sum256([]byte("enclave image v1")))
	nonce := []byte("fresh-nonce-123")
	report, err := SignReport(platform, m, enclave.Public(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := VerifyReport(report, chain, root.Public(), m, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pub, enclave.Public()) {
		t.Fatal("report returned wrong enclave key")
	}

	wrongM := Measurement(sha256.Sum256([]byte("tampered image")))
	if _, err := VerifyReport(report, chain, root.Public(), wrongM, nonce); err != ErrBadMeasurement {
		t.Fatalf("tampered measurement: err = %v, want ErrBadMeasurement", err)
	}
	if _, err := VerifyReport(report, chain, root.Public(), m, []byte("stale")); err == nil {
		t.Fatal("replayed nonce accepted")
	}
	forged := *report
	forged.PlatformSig = append([]byte(nil), forged.PlatformSig...)
	forged.PlatformSig[0] ^= 1
	if _, err := VerifyReport(&forged, chain, root.Public(), m, nonce); err == nil {
		t.Fatal("forged signature accepted")
	}
}

func TestModelKeyDerivation(t *testing.T) {
	_, _, enclave := identities(t)
	secret := []byte("vendor-master-secret")
	n1 := NonceForVersion(secret, 1)
	n2 := NonceForVersion(secret, 2)
	if n1 == n2 {
		t.Fatal("nonces collide across versions")
	}
	k1 := DeriveModelKey(secret, enclave.Public(), n1)
	k1again := DeriveModelKey(secret, enclave.Public(), n1)
	if !bytes.Equal(k1, k1again) {
		t.Fatal("derivation not deterministic")
	}
	k2 := DeriveModelKey(secret, enclave.Public(), n2)
	if bytes.Equal(k1, k2) {
		t.Fatal("different versions derived the same KU (rollback protection broken)")
	}
	otherEnclavePub := append([]byte(nil), enclave.Public()...)
	otherEnclavePub[20] ^= 1
	k3 := DeriveModelKey(secret, otherEnclavePub, n1)
	if bytes.Equal(k1, k3) {
		t.Fatal("different enclaves derived the same KU (ciphertexts transferable)")
	}
	if len(k1) != KeySize {
		t.Fatalf("key length = %d", len(k1))
	}
}

func TestModelAADVersionBinding(t *testing.T) {
	if bytes.Equal(ModelAAD(1), ModelAAD(2)) {
		t.Fatal("AAD identical across versions")
	}
	rng := NewDRBG("aad")
	key, _ := RandomBytes(rng, KeySize)
	env, err := Seal(rng, key, []byte("model v1"), ModelAAD(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, env, ModelAAD(2)); err != ErrDecrypt {
		t.Fatal("version-1 ciphertext opened as version 2")
	}
}

func TestKeyFingerprint(t *testing.T) {
	a := KeyFingerprint([]byte("key-a"))
	b := KeyFingerprint([]byte("key-b"))
	if a == b {
		t.Fatal("fingerprint collision")
	}
}
