package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/omgcrypto"
	"repro/internal/tflm"
)

// Vendor is V: it owns the model (intellectual property), verifies device
// attestation before handing out anything, encrypts the model per enclave
// and version, and actively manages licenses by granting or withholding KU
// (§V: "V can actively manage the access of U to the model by either
// sending or not sending the symmetric key KU").
type Vendor struct {
	identity *omgcrypto.Identity // the key pinned in the enclave image
	secret   []byte              // long-term master secret feeding the KU derivation
	rootPub  []byte              // device-vendor trust anchor
	expected omgcrypto.Measurement
	model    *tflm.Model
	version  uint64
	revoked  map[[32]byte]bool // by enclave-key fingerprint
	rng      io.Reader
}

// NewVendor creates a vendor with an initial model version. The vendor's
// identity public key must be the one pinned in the enclave image, since
// the expected measurement is computed from it.
func NewVendor(rng io.Reader, rootPub []byte, identity *omgcrypto.Identity, model *tflm.Model, version uint64) (*Vendor, error) {
	if version == 0 {
		return nil, errors.New("core: model versions start at 1")
	}
	expected, err := ExpectedMeasurement(identity.Public())
	if err != nil {
		return nil, err
	}
	secret, err := omgcrypto.RandomBytes(rng, 32)
	if err != nil {
		return nil, err
	}
	model.Version = version
	return &Vendor{
		identity: identity,
		secret:   secret,
		rootPub:  rootPub,
		expected: expected,
		model:    model,
		version:  version,
		revoked:  make(map[[32]byte]bool),
		rng:      rng,
	}, nil
}

// Public returns the vendor's public key (the image pin).
func (v *Vendor) Public() []byte { return v.identity.Public() }

// verifyEnclave validates an attestation report (step 2) and returns the
// enclave key.
func (v *Vendor) verifyEnclave(report *omgcrypto.AttestationReport, chain []*omgcrypto.Certificate, nonce []byte) ([]byte, error) {
	pk, err := omgcrypto.VerifyReport(report, chain, v.rootPub, v.expected, nonce)
	if err != nil {
		return nil, fmt.Errorf("core: vendor attestation: %w", err)
	}
	if v.revoked[omgcrypto.KeyFingerprint(pk)] {
		return nil, fmt.Errorf("core: enclave license revoked")
	}
	return pk, nil
}

// ProvisionModel runs step 3: after verifying the report, the vendor
// derives KU = KDF(PK, n) for the current version and returns the model
// encrypted under it. The ciphertext binds the version via associated data.
func (v *Vendor) ProvisionModel(report *omgcrypto.AttestationReport, chain []*omgcrypto.Certificate, nonce []byte) (*ModelPackage, error) {
	pk, err := v.verifyEnclave(report, chain, nonce)
	if err != nil {
		return nil, err
	}
	blob, err := tflm.Encode(v.model)
	if err != nil {
		return nil, err
	}
	n := omgcrypto.NonceForVersion(v.secret, v.version)
	ku := omgcrypto.DeriveModelKey(v.secret, pk, n)
	env, err := omgcrypto.Seal(v.rng, ku, blob, omgcrypto.ModelAAD(v.version))
	if err != nil {
		return nil, err
	}
	return &ModelPackage{Version: v.version, Blob: env.Marshal()}, nil
}

// IssueKey runs step 5: the vendor re-verifies the enclave, checks that the
// requested version is the one it still licenses, and wraps KU to the
// enclave key, signing the response against replay. Refusing to issue keys
// for superseded versions is exactly the rollback protection of §V: old
// ciphertexts require old KUs, which no longer exist.
func (v *Vendor) IssueKey(req *KeyRequest) (*KeyResponse, error) {
	pk, err := v.verifyEnclave(req.Report, req.Chain, req.Nonce)
	if err != nil {
		return nil, err
	}
	if req.Version != v.version {
		return nil, fmt.Errorf("core: version %d no longer licensed (current %d)", req.Version, v.version)
	}
	n := omgcrypto.NonceForVersion(v.secret, v.version)
	ku := omgcrypto.DeriveModelKey(v.secret, pk, n)
	wrapped, err := omgcrypto.WrapKey(v.rng, pk, ku)
	if err != nil {
		return nil, err
	}
	sig, err := v.identity.Sign(keyResponseTBS(req.Nonce, v.version, wrapped))
	if err != nil {
		return nil, err
	}
	return &KeyResponse{Version: v.version, WrappedKU: wrapped, Nonce: append([]byte(nil), req.Nonce...), VendorSig: sig}, nil
}

// Revoke withdraws the license of the enclave with the given public key:
// subsequent IssueKey and ProvisionModel calls fail (the "expired license"
// scenario of §V).
func (v *Vendor) Revoke(enclavePub []byte) {
	v.revoked[omgcrypto.KeyFingerprint(enclavePub)] = true
}

// Reinstate restores a revoked license.
func (v *Vendor) Reinstate(enclavePub []byte) {
	delete(v.revoked, omgcrypto.KeyFingerprint(enclavePub))
}

// UpdateModel replaces the licensed model with a new version. The version
// must increase; the nonce (and hence every KU) changes with it.
func (v *Vendor) UpdateModel(model *tflm.Model, version uint64) error {
	if version <= v.version {
		return fmt.Errorf("core: version must increase (%d -> %d)", v.version, version)
	}
	model.Version = version
	v.model = model
	v.version = version
	return nil
}
