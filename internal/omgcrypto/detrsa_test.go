package omgcrypto

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// goldenDetKeys pins SHA-256 of the modulus DeterministicRSAKey derives for
// fixed seeds. The perfbench seeds are the identities its enclave workload
// deploys. A change to the prime search that alters any derived key (and so
// strands every model ciphertext provisioned to an enclave identity) fails
// here.
var goldenDetKeys = []struct {
	seed string
	bits int
	n    string // hex SHA-256 of N's big-endian bytes
}{
	{"golden-0", 1024, "bb42acb9dca3c60a0e5843e01611c1f907a8d820bbe8bf48a6826b95f58513d7"},
	{"golden-1", 1024, "6ca9af0b41e5ed0c4d98cba538527940a05d831dfb574f30f47b0a3f44f9d6d4"},
	{"golden-2", 1024, "de02183349c3f7f93b65e56026f84d3dcc66719839f907a4dad0c02c4e745b70"},
	{"golden-3", 1024, "dbfe5592670e38dd6f25856a0e59f0979827d448873411840423f4721f1bd797"},
	{"golden-4", 1024, "8129dc636160a4d9a4e813ba5b4d634f41eb16dd004b445d1d2a5bc97f12d512"},
	{"golden-5", 1024, "1a981bcff4625240e0eedd45b2c625f36cb1043928142dab0a3bbbf1e3cdf567"},
	{"golden-6", 1024, "8d866478b7a92c779a711b96333c76ab117b8ac739bac962ae3f7759663cb5f8"},
	{"golden-7", 1024, "f6d3374863383078a2e2211fcff64155b97955953d533bd5eb0ad7b9545f7710"},
	{"golden-0", 2048, "724611cfa98da794902e8cf8f06deae57450ea1cdd7f95df0fbf72c972a8bb91"},
	{"golden-1", 2048, "b6b9010557901b7bf3899668a857662de757069787797409db9c942e8427b2b0"},
	{"golden-2", 2048, "d78260bff83f92fd184ffd8a092e1a8e8589ea5bf84682c8f87a72f68dc37fdf"},
	{"golden-3", 2048, "5ae69fa7e37b6305bbc5612795af372c56defba57d6ad94a9eaa769031f75d05"},
	{"perfbench/device-vendor", 2048, "4999326186d7178a99122f0054339127af9037e142291d8edf42e0968fb40b42"},
	{"perfbench/model-vendor", 2048, "d6a20a0e1948cd7048bbcd488c78b48d5cbc4178a430675993039d5bd7f846e8"},
}

func TestDeterministicRSAKeyGolden(t *testing.T) {
	for _, g := range goldenDetKeys {
		t.Run(fmt.Sprintf("%s/bits=%d", g.seed, g.bits), func(t *testing.T) {
			key, err := DeterministicRSAKey([]byte(g.seed), g.bits)
			if err != nil {
				t.Fatal(err)
			}
			if key.N.BitLen() != g.bits {
				t.Fatalf("modulus is %d bits, want %d", key.N.BitLen(), g.bits)
			}
			sum := sha256.Sum256(key.N.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.n {
				t.Fatalf("SHA-256(N) = %s, want %s", got, g.n)
			}
		})
	}
}

// trialDivides is the reference sieveRejects must agree with: big.Int.Mod by
// every odd prime below sieveBound.
func trialDivides(x *big.Int) bool {
	var r big.Int
	for _, g := range sieveGroups {
		for _, q := range g.primes {
			if r.Mod(x, new(big.Int).SetUint64(q)).Sign() == 0 {
				return true
			}
		}
	}
	return false
}

func TestSieveGroups(t *testing.T) {
	var primes []uint64
	for _, g := range sieveGroups {
		prod := big.NewInt(1)
		for _, q := range g.primes {
			if !new(big.Int).SetUint64(q).ProbablyPrime(0) {
				t.Fatalf("%d in the sieve is not prime", q)
			}
			prod.Mul(prod, new(big.Int).SetUint64(q))
			primes = append(primes, q)
		}
		if !prod.IsUint64() || prod.Uint64() != g.m {
			t.Fatalf("group modulus %d is not the product of %v", g.m, g.primes)
		}
	}
	// Every odd prime below the bound, in order, each once.
	var want []uint64
	for q := uint64(3); q < sieveBound; q += 2 {
		if new(big.Int).SetUint64(q).ProbablyPrime(0) {
			want = append(want, q)
		}
	}
	if fmt.Sprint(primes) != fmt.Sprint(want) {
		t.Fatalf("sieve primes differ from the odd primes below %d", sieveBound)
	}
}

func TestSieveMatchesTrialDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Random odd values from 256 to 1024 bits: the prime search's range.
	for i := 0; i < 2000; i++ {
		bits := 256 + rng.Intn(769)
		x := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		x.SetBit(x, bits-1, 1)
		x.SetBit(x, 0, 1)
		if got, want := sieveRejects(x), trialDivides(x); got != want {
			t.Fatalf("sieveRejects(%x) = %v, trial division says %v", x, got, want)
		}
	}
	// q·m for every sieve prime q and a random odd 512-bit m: every prime of
	// every group must be caught as a factor.
	for _, g := range sieveGroups {
		for _, q := range g.primes {
			m := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 512))
			m.SetBit(m, 511, 1)
			m.SetBit(m, 0, 1)
			x := new(big.Int).Mul(m, new(big.Int).SetUint64(q))
			if !sieveRejects(x) {
				t.Fatalf("sieveRejects missed factor %d of %x", q, x)
			}
		}
	}
}
