package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/dsp"
	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/sanctuary"
	"repro/internal/tflm"
)

// Marshal serializes a model package for untrusted flash:
// 8-byte version followed by the envelope.
func (p *ModelPackage) Marshal() []byte {
	out := make([]byte, 8+len(p.Blob))
	binary.LittleEndian.PutUint64(out, p.Version)
	copy(out[8:], p.Blob)
	return out
}

// UnmarshalModelPackage parses the flash blob. The minimum legal package is
// the 8-byte version header alone (an empty blob round-trips through
// Marshal).
func UnmarshalModelPackage(data []byte) (*ModelPackage, error) {
	if len(data) < 8 {
		return nil, errors.New("core: truncated model package")
	}
	return &ModelPackage{
		Version: binary.LittleEndian.Uint64(data),
		Blob:    append([]byte(nil), data[8:]...),
	}, nil
}

// KWSApp is the SANCTUARY App: the keyword-spotting service running inside
// the enclave. Its interpreter and decrypted model exist only while the
// enclave is alive; the commodity OS sees ciphertext and class labels.
type KWSApp struct {
	dev       *Device
	enclave   *sanctuary.Enclave
	fe        *dsp.Frontend
	interp    *tflm.Interpreter
	version   uint64
	vendorPub []byte // pinned in the enclave image
	rng       io.Reader
	// pendingNonce is the self-generated nonce of an in-flight key
	// request; responses must echo it.
	pendingNonce []byte
	// modelOffset is where the plaintext model bytes live inside the
	// enclave-private region (after the image), so that memory isolation
	// and teardown scrubbing measurably cover them.
	modelOffset uint64
	modelLen    int
	// Operation-phase scratch, owned by the app so the always-on query path
	// performs no per-query heap allocation: the capture buffer, the
	// fingerprint, the dequantized probabilities and the result shell that
	// Query hands out.
	capBuf    []int16
	fpScratch []uint8
	probs     []float64
	res       QueryResult
}

// LaunchEnclave performs SANCTUARY setup+boot for the OMG image with the
// vendor key pinned (preparation phase, first half). rng drives the
// enclave's protocol nonces (nil = crypto/rand).
func LaunchEnclave(dev *Device, vendorPub []byte, rng io.Reader) (*KWSApp, error) {
	img := BuildImage(vendorPub)
	e, err := dev.Sanctuary.Setup(sanctuary.Config{
		Image:        img,
		PrivateSize:  EnclavePrivateSize,
		SharedSWSize: EnclaveSharedSWSize,
		AllowMic:     true,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Boot(); err != nil {
		return nil, err
	}
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	return &KWSApp{
		dev:         dev,
		enclave:     e,
		fe:          fe,
		vendorPub:   append([]byte(nil), vendorPub...),
		rng:         rng,
		modelOffset: uint64(len(img.Code)),
	}, nil
}

// Enclave exposes the underlying enclave (tests and lifecycle experiments).
func (a *KWSApp) Enclave() *sanctuary.Enclave { return a.enclave }

// Attest produces an attestation report for a verifier nonce, initiated
// from inside the enclave (§V steps 1–2).
func (a *KWSApp) Attest(nonce []byte) (*omgcrypto.AttestationReport, []*omgcrypto.Certificate, error) {
	var report *omgcrypto.AttestationReport
	var chain []*omgcrypto.Certificate
	err := a.enclave.Run(func(env *sanctuary.Env) error {
		var err error
		report, chain, err = env.Attest(nonce)
		return err
	})
	return report, chain, err
}

// StoreModelPackage parks the encrypted model on untrusted flash
// (§V step 4). Only ciphertext leaves the enclave.
func (a *KWSApp) StoreModelPackage(pkg *ModelPackage) error {
	return a.enclave.Run(func(env *sanctuary.Env) error {
		env.StoreBlob(ModelBlobName, pkg.Marshal())
		return nil
	})
}

// StoredVersion reads the version of the locally cached encrypted model,
// which the enclave requests a key for during initialization.
func (a *KWSApp) StoredVersion() (uint64, error) {
	var version uint64
	err := a.enclave.Run(func(env *sanctuary.Env) error {
		data, ok := env.LoadBlob(ModelBlobName)
		if !ok {
			return errors.New("core: no model package on flash")
		}
		pkg, err := UnmarshalModelPackage(data)
		if err != nil {
			return err
		}
		version = pkg.Version
		return nil
	})
	return version, err
}

// RequestKey begins phase II from inside the enclave: it generates a fresh
// nonce, attests with it, and emits the request the OS relays to the
// vendor. The nonce is remembered so the response cannot be replayed.
func (a *KWSApp) RequestKey() (*KeyRequest, error) {
	version, err := a.StoredVersion()
	if err != nil {
		return nil, err
	}
	nonce, err := omgcrypto.RandomBytes(a.rng, 16)
	if err != nil {
		return nil, err
	}
	report, chain, err := a.Attest(nonce)
	if err != nil {
		return nil, err
	}
	a.pendingNonce = nonce
	return &KeyRequest{Report: report, Chain: chain, Nonce: nonce, Version: version}, nil
}

// Initialize runs phase II inside the enclave (§V step 6): unwrap KU with
// the enclave key, load the ciphertext from flash, decrypt it bound to the
// version, decode the model, and stand up the interpreter. The plaintext
// model bytes are written into enclave-private memory so that isolation
// and scrub behaviour measurably cover them.
func (a *KWSApp) Initialize(resp *KeyResponse) error {
	return a.enclave.Run(func(env *sanctuary.Env) error {
		// Freshness and authenticity first: the response must echo the
		// pending nonce and verify under the pinned vendor key.
		if a.pendingNonce == nil {
			return errors.New("core: no key request in flight")
		}
		if !bytes.Equal(resp.Nonce, a.pendingNonce) {
			return errors.New("core: key response nonce mismatch (replay?)")
		}
		if err := omgcrypto.Verify(a.vendorPub, keyResponseTBS(resp.Nonce, resp.Version, resp.WrappedKU), resp.VendorSig); err != nil {
			return fmt.Errorf("core: key response signature: %w", err)
		}
		env.Core().Charge(hw.CyclesPerRSA2048Verify)
		a.pendingNonce = nil
		data, ok := env.LoadBlob(ModelBlobName)
		if !ok {
			return errors.New("core: no model package on flash")
		}
		pkg, err := UnmarshalModelPackage(data)
		if err != nil {
			return err
		}
		if pkg.Version != resp.Version {
			return fmt.Errorf("core: stored model v%d but key is for v%d", pkg.Version, resp.Version)
		}
		ku, err := env.Identity().UnwrapKey(resp.WrappedKU)
		if err != nil {
			return fmt.Errorf("core: unwrapping KU: %w", err)
		}
		env.Core().Charge(hw.CyclesPerRSA2048Sign) // private-key operation
		envlp, err := omgcrypto.UnmarshalEnvelope(pkg.Blob)
		if err != nil {
			return err
		}
		plain, err := omgcrypto.Open(ku, envlp, omgcrypto.ModelAAD(pkg.Version))
		if err != nil {
			return fmt.Errorf("core: decrypting model: %w", err)
		}
		env.Core().Charge(uint64(len(pkg.Blob)) * hw.CyclesPerByteAES)
		if a.modelOffset+uint64(len(plain)) > a.enclave.PrivSize() {
			return fmt.Errorf("core: model (%d bytes) exceeds enclave memory", len(plain))
		}
		if err := env.WritePriv(a.modelOffset, plain); err != nil {
			return err
		}
		model, err := tflm.Decode(plain)
		if err != nil {
			return fmt.Errorf("core: decoding model: %w", err)
		}
		interp, err := tflm.NewInterpreter(model)
		if err != nil {
			return err
		}
		interp.SetMeter(env.Core())
		a.interp = interp
		a.version = pkg.Version
		a.modelLen = len(plain)
		return nil
	})
}

// utterancesPerSMC returns how many whole utterances fit in the enclave's
// shared secure-world window — the batch granularity of QueryBatch's mic
// capture.
func (a *KWSApp) utterancesPerSMC() int {
	perCall := int(a.enclave.SWSize()/2) / a.fe.Config().SampleRate
	if perCall < 1 {
		perCall = 1
	}
	return perCall
}

// Ready reports whether the app holds a decrypted model.
func (a *KWSApp) Ready() bool { return a.interp != nil }

// Version returns the decrypted model's version (0 before Initialize).
func (a *KWSApp) Version() uint64 { return a.version }

// QueryResult is what leaves the enclave in step 8.
type QueryResult struct {
	// Label is the argmax class of the classified utterance.
	Label int
	// Probs are the dequantized class probabilities (the "output
	// presented to the user or made available to other applications").
	Probs []float64
}

// Query runs one operation-phase inference (§V steps 7–8): capture audio
// from the secure microphone, extract the fingerprint, and invoke the
// model. All compute is charged to the enclave core.
//
// The hot path runs entirely in app-owned scratch (capture buffer,
// fingerprint, probabilities, the QueryResult itself), so steady-state
// queries do not grow the enclave heap. Consequently the returned result —
// pointer, Label and Probs alike — is only valid until the next Query on
// this app; copy what must outlive it. QueryBatch results own their
// storage.
func (a *KWSApp) Query() (*QueryResult, error) {
	if a.interp == nil {
		return nil, errors.New("core: enclave not initialized")
	}
	err := a.enclave.Run(func(env *sanctuary.Env) error {
		// Capture a full one-second window; the frontend consumes the
		// leading UtteranceSamples() of it. Draining the whole second keeps
		// consecutive utterances aligned in the FIFO.
		samples, err := env.CaptureMicInto(a.capBuf, a.fe.Config().SampleRate)
		if err != nil {
			return err
		}
		a.capBuf = samples
		a.fpScratch = a.fe.ExtractInto(a.fpScratch, samples)
		env.Core().Charge(a.fe.Cycles())
		if a.probs, err = infer(a.interp, a.fpScratch, a.probs); err != nil {
			return err
		}
		a.res = QueryResult{Label: a.lastLabel(), Probs: a.probs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &a.res, nil
}

// infer quantizes a fingerprint into ip's input, invokes the model, and
// dequantizes the output into probs (grown only when needed). The caller
// reads the label as the argmax of ip's output.
func infer(ip *tflm.Interpreter, fp []uint8, probs []float64) ([]float64, error) {
	in := ip.Input(0)
	for i, f := range fp {
		in.I8[i] = int8(int32(f) - 128)
	}
	if err := ip.Invoke(); err != nil {
		return probs, err
	}
	out := ip.Output(0)
	if cap(probs) < out.NumElements() {
		probs = make([]float64, out.NumElements())
	}
	probs = probs[:out.NumElements()]
	for i, q := range out.I8 {
		probs[i] = out.Quant.Dequantize(q)
	}
	return probs, nil
}

// lastLabel returns the argmax of the most recent inference.
func (a *KWSApp) lastLabel() int { return tflm.Argmax(a.interp.Output(0)) }

// QueryBatch runs n operation-phase inferences inside a single enclave Run,
// amortizing the per-query enclave overhead that dominates the Table-I OMG
// column: microphone capture batches as many utterances per SMC round trip
// as the shared-SW window holds (one world switch per window-full instead
// of per utterance), each utterance is classified through the same infer
// (one Invoke) as Query, and all per-utterance state lives in app-owned
// scratch plus one flat probability slab for the whole batch. The n
// utterances must already be queued in the microphone FIFO; missing audio
// classifies as silence, exactly as in Query. Unlike Query's, the returned
// results own their probability storage.
func (a *KWSApp) QueryBatch(n int) ([]QueryResult, error) {
	if a.interp == nil {
		return nil, errors.New("core: enclave not initialized")
	}
	if n <= 0 {
		return nil, nil
	}
	rate := a.fe.Config().SampleRate
	perCall := a.utterancesPerSMC()
	classes := a.interp.Output(0).NumElements()
	results := make([]QueryResult, n)
	flat := make([]float64, n*classes)
	err := a.enclave.Run(func(env *sanctuary.Env) error {
		for k := 0; k < n; {
			// One SMC round trip deposits up to perCall utterances in the
			// shared window.
			m := min(perCall, n-k)
			got, err := env.CaptureMicBulk(m * rate)
			if err != nil {
				return err
			}
			for j := 0; j < m; j++ {
				take := min(rate, max(0, got-j*rate))
				utt, err := env.ReadMicWindow(a.capBuf, j*rate, take)
				if err != nil {
					return err
				}
				a.capBuf = utt
				a.fpScratch = a.fe.ExtractInto(a.fpScratch, utt)
				env.Core().Charge(a.fe.Cycles())
				probs, err := infer(a.interp, a.fpScratch, flat[(k+j)*classes:(k+j)*classes:(k+j+1)*classes])
				if err != nil {
					return err
				}
				results[k+j] = QueryResult{Label: a.lastLabel(), Probs: probs}
			}
			k += m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// CaptureOnly pulls one utterance through the secure microphone path
// without running the frontend or the model; the E4 experiment uses it to
// isolate the sensor-input overhead.
func (a *KWSApp) CaptureOnly() (int, error) {
	var n int
	err := a.enclave.Run(func(env *sanctuary.Env) error {
		samples, err := env.CaptureMicInto(a.capBuf, a.fe.Config().SampleRate)
		if err != nil {
			return err
		}
		a.capBuf = samples
		n = len(samples)
		return nil
	})
	return n, err
}

// Suspend parks the enclave between queries (operation-phase core
// reallocation, §V).
func (a *KWSApp) Suspend() error { return a.enclave.Suspend() }

// Resume reactivates a suspended enclave; the interpreter keeps metering
// the (possibly new) core.
func (a *KWSApp) Resume() error {
	if err := a.enclave.Resume(); err != nil {
		return err
	}
	if a.interp != nil {
		a.interp.SetMeter(a.enclave.Core())
	}
	return nil
}

// Teardown destroys the enclave; SANCTUARY scrubs the private region,
// including the plaintext model bytes.
func (a *KWSApp) Teardown() error {
	a.interp = nil
	return a.enclave.Teardown()
}
