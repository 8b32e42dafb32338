package omgcrypto

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// DeterministicRSAKey derives an RSA key pair entirely from seed. The
// platform uses it to give an enclave the *same* identity every time the
// same image is measured on the same device (§V: the enclave key pair "is
// derived from the platform certificate"), which is what keeps previously
// provisioned model ciphertexts usable across enclave relaunches.
//
// The standard library's rsa.GenerateKey is deliberately non-deterministic
// even with a deterministic reader (since Go 1.20), so each prime here is the
// first candidate of a DRBG stream that survives three filters in turn:
// trial division by the odd primes below sieveBound, one base-2 Fermat test,
// and ProbablyPrime with the Miller–Rabin round count crypto/rsa's own key
// generation uses at that size, plus the Baillie–PSW test ProbablyPrime
// always runs. The first two reject only composites, so they decide nothing
// the last would not; they just reject most candidates without its cost.
// The security of the resulting key reduces to the entropy of seed, which
// the caller must derive from a device secret.
func DeterministicRSAKey(seed []byte, bits int) (*rsa.PrivateKey, error) {
	if bits < 512 {
		return nil, fmt.Errorf("omgcrypto: RSA size %d too small", bits)
	}
	rng := NewDRBG("det-rsa:" + string(seed))
	e := big.NewInt(65537)
	for attempt := 0; attempt < 100; attempt++ {
		p, err := drbgPrime(rng, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := drbgPrime(rng, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // e not coprime with φ(n); redraw primes
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: int(e.Int64())},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if err := key.Validate(); err != nil {
			continue
		}
		return key, nil
	}
	return nil, errors.New("omgcrypto: deterministic RSA generation exhausted attempts")
}

// sieveBound bounds the odd primes drbgPrime trial-divides by before any
// exponentiation. About 13.5% of random odd candidates survive it, against
// ~28% after ProbablyPrime's own trial division by the primes up to 53.
// Bounds from 2^11 to 2^14 cost within ~7% of each other; past that the
// divisions outgrow the exponentiations they save.
const sieveBound = 1 << 12

// sieveGroup is a run of consecutive odd primes whose product m fits a
// uint64, so one remainder of a candidate modulo m serves every prime in it.
type sieveGroup struct {
	m      uint64
	primes []uint64
}

var sieveGroups = makeSieveGroups(sieveBound)

// makeSieveGroups packs the odd primes below bound into sieveGroups.
func makeSieveGroups(bound int) []sieveGroup {
	composite := make([]bool, bound)
	var groups []sieveGroup
	g := sieveGroup{m: 1}
	for q := 3; q < bound; q += 2 {
		if composite[q] {
			continue
		}
		for k := q * q; k < bound; k += 2 * q {
			composite[k] = true
		}
		if hi, _ := bits.Mul64(g.m, uint64(q)); hi != 0 {
			groups = append(groups, g)
			g = sieveGroup{m: 1}
		}
		g.m *= uint64(q)
		g.primes = append(g.primes, uint64(q))
	}
	return append(groups, g)
}

// sieveRejects reports whether x has an odd prime factor below sieveBound.
// x must exceed sieveBound, so that such a factor is never x itself.
func sieveRejects(x *big.Int) bool {
	words := x.Bits()
	for _, g := range sieveGroups {
		r := modWords(words, g.m)
		for _, q := range g.primes {
			if r%q == 0 {
				return true
			}
		}
	}
	return false
}

// modWords returns the little-endian magnitude words mod m.
func modWords(words []big.Word, m uint64) uint64 {
	var r uint64
	for i := len(words) - 1; i >= 0; i-- {
		if bits.UintSize == 64 {
			_, r = bits.Div64(r, uint64(words[i]), m)
		} else {
			_, r = bits.Div64(r>>32, r<<32|uint64(words[i]), m)
		}
	}
	return r
}

// millerRabinRounds is the Miller–Rabin round count crypto/rsa's key
// generation uses for a random prime of the given size (FIPS 186-5 B.3.1;
// crypto/internal/fips140/rsa isPrime). DeterministicRSAKey's primes are at
// least 256 bits, so the table stops there.
func millerRabinRounds(bits int) int {
	switch {
	case bits >= 3747:
		return 3
	case bits >= 1345:
		return 4
	case bits >= 476:
		return 5
	case bits >= 400:
		return 6
	case bits >= 347:
		return 7
	case bits >= 308:
		return 8
	default:
		return 27
	}
}

func drbgPrime(rng io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	// ProbablyPrime(n) runs n random bases on top of base 2.
	randomBases := millerRabinRounds(bits) - 1
	p, pm1, fermat := new(big.Int), new(big.Int), new(big.Int)
	for i := 0; i < 100000; i++ {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		p.SetBytes(buf)
		p.Rsh(p, uint(len(buf)*8-bits))
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1) // force full-size modulus
		p.SetBit(p, 0, 1)
		if sieveRejects(p) {
			continue
		}
		// Every odd prime passes 2^(p-1) ≡ 1 (mod p), so this rejects only
		// composites. Most sieve survivors stop here, without the math/rand
		// source ProbablyPrime seeds on every call.
		if fermat.Exp(two, pm1.Sub(p, one), p).Cmp(one) != 0 {
			continue
		}
		if p.ProbablyPrime(randomBases) {
			return p, nil
		}
	}
	return nil, errors.New("omgcrypto: prime search exhausted")
}

var one, two = big.NewInt(1), big.NewInt(2)
