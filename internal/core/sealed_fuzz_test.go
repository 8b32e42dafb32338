package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/omgcrypto"
)

// sealedPackage returns the flash bytes of a model package that
// Vendor.ProvisionModel sealed for a freshly attested enclave, and the KU
// that opens it, derived as the vendor derives it for that enclave key.
func sealedPackage(tb testing.TB) (sealed, ku []byte) {
	tb.Helper()
	dev := newTestDevice(tb, "sealed-fuzz")
	vendor := newTestVendor(tb, 1)
	app, err := LaunchEnclave(dev, vendor.Public(), omgcrypto.NewDRBG("sealed-fuzz"))
	if err != nil {
		tb.Fatal(err)
	}
	nonce := []byte("sealed-fuzz-nonce")
	report, chain, err := app.Attest(nonce)
	if err != nil {
		tb.Fatal(err)
	}
	pkg, err := vendor.ProvisionModel(report, chain, nonce)
	if err != nil {
		tb.Fatal(err)
	}
	ku = omgcrypto.DeriveModelKey(vendor.secret, report.EnclavePub, omgcrypto.NonceForVersion(vendor.secret, pkg.Version))
	return pkg.Marshal(), ku
}

// openSealed runs the decode chain KWSApp.Initialize runs over flash bytes
// (UnmarshalModelPackage, omgcrypto.UnmarshalEnvelope, omgcrypto.Open) and
// fails t unless each decoder that accepts its input gives it back
// unchanged through Marshal.
func openSealed(t *testing.T, data, ku []byte) ([]byte, error) {
	pkg, err := UnmarshalModelPackage(data)
	if (err != nil) != (len(data) < 8) {
		t.Fatalf("UnmarshalModelPackage(%d bytes) err = %v", len(data), err)
	}
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(pkg.Marshal(), data) {
		t.Fatal("model package does not round-trip")
	}
	env, err := omgcrypto.UnmarshalEnvelope(pkg.Blob)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(env.Marshal(), pkg.Blob) {
		t.Fatal("envelope does not round-trip")
	}
	return omgcrypto.Open(ku, env, omgcrypto.ModelAAD(pkg.Version))
}

// FuzzSealedModelPackage fuzzes the decoders that untrusted flash bytes
// reach before the enclave decrypts its model. For any input, no decoder
// panics, each decoder that accepts its input round-trips it, and the
// genuine package, and only it, opens under its KU. A single-bit flip anywhere in the
// genuine package, version header and envelope alike, makes Open return
// ErrDecrypt.
func FuzzSealedModelPackage(f *testing.F) {
	sealed, ku := sealedPackage(f)
	bits := uint32(len(sealed) * 8)
	f.Add(sealed, uint32(0))            // version header
	f.Add(sealed, uint32(8*8))          // envelope nonce length
	f.Add(sealed, uint32(8*8+8))        // nonce
	f.Add(sealed, bits-1)               // GCM tag
	f.Add(sealed[:8], uint32(0))        // empty envelope
	f.Add(sealed[:9+12], uint32(0))     // nonce, no ciphertext
	f.Add([]byte("omg"), uint32(12345)) // truncated header
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		if _, err := openSealed(t, data, ku); (err == nil) != bytes.Equal(data, sealed) {
			t.Fatalf("%d-byte package: Open err = %v; only the sealed package may open, and it must", len(data), err)
		}
		flipped := bytes.Clone(sealed)
		i := bit % bits
		flipped[i/8] ^= 1 << (i % 8)
		if _, err := openSealed(t, flipped, ku); !errors.Is(err, omgcrypto.ErrDecrypt) {
			t.Fatalf("bit %d flipped: Open err = %v, want ErrDecrypt", i, err)
		}
	})
}
