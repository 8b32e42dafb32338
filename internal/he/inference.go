package he

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/intnet"
)

// AddPlain folds a plaintext constant into a ciphertext:
// c · (1+n)^k = c · (1 + k·n) mod n².
func (pk *PublicKey) AddPlain(c *big.Int, k int64) *big.Int {
	kk := pk.EncodeSigned(k)
	gm := new(big.Int).Mul(kk, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	out := gm.Mul(gm, c)
	return out.Mod(out, pk.N2)
}

// Report tallies the work and traffic of one HE inference.
type Report struct {
	Encryptions int
	Decryptions int
	PlainMuls   int // ciphertext–plaintext multiplications (modexp)
	Adds        int // ciphertext–ciphertext additions (modmul)
	Rounds      int // client↔server interaction rounds
	BytesOnWire int64
	Prediction  int
}

// Engine evaluates the integer tiny_conv on encrypted inputs: the client
// holds the key pair and its fingerprint; the server holds the plaintext
// model. Linear layers run on ciphertexts server-side; ReLU requires a
// decrypt–apply–re-encrypt round trip through the client, as in early
// interactive HE inference systems. (The client thereby sees post-conv
// activations — the model-privacy weakness of this construction is part of
// why the paper's TEE approach wins.)
type Engine struct {
	sk   *PrivateKey
	spec *intnet.Spec
	rng  io.Reader
}

// NewEngine builds an HE inference engine from a quantized tiny_conv model.
func NewEngine(sk *PrivateKey, spec *intnet.Spec, rng io.Reader) (*Engine, error) {
	if sk == nil || spec == nil {
		return nil, fmt.Errorf("he: nil key or spec")
	}
	// The plaintext space must hold the largest accumulator: conservatively
	// |acc| ≤ KH·KW·255·127 + |bias|, far below 2^40; require N ≥ 2^64.
	if sk.N.BitLen() < 64 {
		return nil, fmt.Errorf("he: modulus too small for accumulators")
	}
	return &Engine{sk: sk, spec: spec, rng: rng}, nil
}

// Infer runs one encrypted inference and returns the report.
func (e *Engine) Infer(features []uint8) (*Report, error) {
	s := e.spec
	pk := &e.sk.PublicKey
	rep := &Report{}
	ctBytes := int64(pk.CiphertextBytes())

	// Client: encrypt the fingerprint and ship it (round 1).
	x := s.InputFromFeatures(features)
	encX := make([]*big.Int, len(x))
	for i, v := range x {
		c, err := pk.Encrypt(e.rng, pk.EncodeSigned(v))
		if err != nil {
			return nil, err
		}
		encX[i] = c
		rep.Encryptions++
	}
	rep.Rounds++
	rep.BytesOnWire += int64(len(encX)) * ctBytes

	// Server: homomorphic convolution.
	encConv := make([]*big.Int, s.FlatLen)
	for oy := 0; oy < s.OutH; oy++ {
		iy0 := oy*s.SH - s.PadT
		for ox := 0; ox < s.OutW; ox++ {
			ix0 := ox*s.SW - s.PadL
			for f := 0; f < s.Filters; f++ {
				acc := pk.AddPlain(big.NewInt(1), s.ConvB[f]) // Enc(bias), deterministic zero-randomness form
				wBase := f * s.KH * s.KW
				for ky := 0; ky < s.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= s.InH {
						continue
					}
					for kx := 0; kx < s.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= s.InW {
							continue
						}
						w := s.ConvW[wBase+ky*s.KW+kx]
						if w == 0 {
							continue
						}
						term := pk.MulPlain(encX[iy*s.InW+ix], w)
						acc = pk.Add(acc, term)
						rep.PlainMuls++
						rep.Adds++
					}
				}
				encConv[(oy*s.OutW+ox)*s.Filters+f] = acc
			}
		}
	}

	// ReLU round trip: server → client (ciphertexts), client decrypts,
	// applies ReLU, re-encrypts, client → server (round 2).
	rep.Rounds++
	rep.BytesOnWire += int64(len(encConv)) * ctBytes * 2
	encFlat := make([]*big.Int, len(encConv))
	for i, c := range encConv {
		m, err := e.sk.Decrypt(c)
		if err != nil {
			return nil, err
		}
		rep.Decryptions++
		v := pk.DecodeSigned(m)
		if v < 0 {
			v = 0
		}
		enc, err := pk.Encrypt(e.rng, pk.EncodeSigned(v))
		if err != nil {
			return nil, err
		}
		encFlat[i] = enc
		rep.Encryptions++
	}

	// Server: homomorphic fully connected layer; logits back to the client
	// (round 3).
	encLogits := make([]*big.Int, s.NumClasses)
	for o := 0; o < s.NumClasses; o++ {
		acc := pk.AddPlain(big.NewInt(1), s.FCB[o])
		wBase := o * s.FlatLen
		for i := 0; i < s.FlatLen; i++ {
			w := s.FCW[wBase+i]
			if w == 0 {
				continue
			}
			acc = pk.Add(acc, pk.MulPlain(encFlat[i], w))
			rep.PlainMuls++
			rep.Adds++
		}
		encLogits[o] = acc
	}
	rep.Rounds++
	rep.BytesOnWire += int64(len(encLogits)) * ctBytes

	// Client: decrypt logits, take the argmax.
	best := 0
	var bestV int64
	for o, c := range encLogits {
		m, err := e.sk.Decrypt(c)
		if err != nil {
			return nil, err
		}
		rep.Decryptions++
		v := pk.DecodeSigned(m)
		if o == 0 || v > bestV {
			best, bestV = o, v
		}
	}
	rep.Prediction = best
	return rep, nil
}
