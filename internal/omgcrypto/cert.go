package omgcrypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Certificate is a minimal signed binding of a subject name to a public key,
// forming the hierarchy the paper describes: "This key pair is derived from
// the platform certificate issued by the device vendor, effectively creating
// a certificate hierarchy similar to SSL certificates" (§V).
//
// We intentionally do not reuse x509.Certificate: the simulated platform
// needs only (subject, key, issuer, signature), and a 40-line encoding keeps
// the trust computation auditable in tests.
type Certificate struct {
	Subject   string
	PublicKey []byte // PKIX DER
	Issuer    string
	Signature []byte // issuer's signature over tbs()
}

// tbs returns the canonical to-be-signed encoding.
func (c *Certificate) tbs() []byte {
	var buf bytes.Buffer
	writeBytes := func(b []byte) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(b)))
		buf.Write(l[:])
		buf.Write(b)
	}
	writeBytes([]byte("omg-cert-v1"))
	writeBytes([]byte(c.Subject))
	writeBytes(c.PublicKey)
	writeBytes([]byte(c.Issuer))
	return buf.Bytes()
}

// IssueCertificate signs a certificate for subjectPub under the issuer key.
func IssueCertificate(issuer *Identity, subject string, subjectPub []byte) (*Certificate, error) {
	c := &Certificate{
		Subject:   subject,
		PublicKey: append([]byte(nil), subjectPub...),
		Issuer:    issuer.Subject,
	}
	sig, err := issuer.Sign(c.tbs())
	if err != nil {
		return nil, err
	}
	c.Signature = sig
	return c, nil
}

// SelfSign produces a root certificate for an identity.
func SelfSign(root *Identity) (*Certificate, error) {
	return IssueCertificate(root, root.Subject, root.Public())
}

// VerifyChain checks that chain[0] is signed by chain[1], chain[1] by
// chain[2], ..., and that the final certificate's public key equals
// rootPub (the verifier's trust anchor). It returns the leaf public key.
func VerifyChain(chain []*Certificate, rootPub []byte) ([]byte, error) {
	if len(chain) == 0 {
		return nil, errors.New("omgcrypto: empty certificate chain")
	}
	for i := 0; i < len(chain); i++ {
		var issuerPub []byte
		if i+1 < len(chain) {
			issuerPub = chain[i+1].PublicKey
		} else {
			issuerPub = rootPub // the root signs itself
		}
		if err := Verify(issuerPub, chain[i].tbs(), chain[i].Signature); err != nil {
			return nil, fmt.Errorf("omgcrypto: chain link %d (%s): %w", i, chain[i].Subject, err)
		}
		if i+1 < len(chain) && chain[i].Issuer != chain[i+1].Subject {
			return nil, fmt.Errorf("omgcrypto: chain link %d issuer %q != %q", i, chain[i].Issuer, chain[i+1].Subject)
		}
	}
	last := chain[len(chain)-1]
	if !bytes.Equal(last.PublicKey, rootPub) {
		return nil, errors.New("omgcrypto: chain does not terminate at the trusted root")
	}
	return chain[0].PublicKey, nil
}
