package harness

import (
	"fmt"
	"time"

	"repro/internal/he"
	"repro/internal/intnet"
	"repro/internal/mpc"
	"repro/internal/omgcrypto"
)

func init() {
	register(Experiment{ID: "E7", Title: "OMG vs cryptographic baselines (HE, SMPC)", Run: runE7})
}

// heKeyBits selects the Paillier modulus: small enough to finish a live
// run, with projection to 2048 bits from a measured scaling factor.
func heKeyBits(quick bool) int {
	if quick {
		return 384
	}
	return 768
}

func runE7(ctx *Ctx) (*Table, error) {
	f, err := ctx.fixture()
	if err != nil {
		return nil, err
	}
	// The shared integer view of the trained model.
	spec, err := intnet.FromModel(f.Pipeline.Model)
	if err != nil {
		return nil, err
	}
	features := f.SubsetFeats[0].Features

	// Reference point: Table I per-query times (plain & OMG).
	t1, err := runTable1(ctx)
	if err != nil {
		return nil, err
	}

	// --- Paillier HE baseline ---
	bits := heKeyBits(ctx.Quick)
	ctx.Logf("E7: generating %d-bit Paillier key", bits)
	sk, err := he.GenerateKey(omgcrypto.NewDRBG("e7-paillier"), bits)
	if err != nil {
		return nil, err
	}
	eng, err := he.NewEngine(sk, spec, omgcrypto.NewDRBG("e7-he"))
	if err != nil {
		return nil, err
	}
	ctx.Logf("E7: running HE inference (this is the slow part)")
	heStart := time.Now()
	heRep, err := eng.Infer(features)
	if err != nil {
		return nil, err
	}
	heTime := time.Since(heStart)
	// Project to 2048-bit keys: modexp scales ~cubically in the modulus.
	scale := cube(2048.0 / float64(bits))
	heProjected := time.Duration(float64(heTime) * scale)

	// --- 2PC MPC baseline ---
	proto, err := mpc.NewProtocol(spec, 7)
	if err != nil {
		return nil, err
	}
	mpcStart := time.Now()
	mpcRep, err := proto.Infer(features)
	if err != nil {
		return nil, err
	}
	mpcCompute := time.Since(mpcStart)

	mb := func(b int64) string { return fmt.Sprintf("%.2f MB", float64(b)/1e6) }
	rows := [][]string{
		{"plain (no protection)", fmt.Sprintf("%.1f ms", msF(t1.plainPerQuery)), "–", "–", "none"},
		{"OMG (SANCTUARY enclave)", fmt.Sprintf("%.1f ms", msF(t1.omgPerQuery)), "–", "–", "input + model + integrity"},
		{fmt.Sprintf("HE (Paillier %d-bit, measured)", bits), fmt.Sprintf("%.1f s", heTime.Seconds()), mb(heRep.BytesOnWire), fmt.Sprintf("%d", heRep.Rounds), "input privacy only"},
		{"HE (projected 2048-bit)", fmt.Sprintf("%.1f s", heProjected.Seconds()), mb(heRep.BytesOnWire * int64(2048/bits)), fmt.Sprintf("%d", heRep.Rounds), "input privacy only"},
		{"2PC (dealer-assisted, LAN)", fmt.Sprintf("%.1f ms + %.0f ms net", 1000*mpcCompute.Seconds(), msF(mpcRep.LANTime)), mb(mpcRep.BytesOnWire), fmt.Sprintf("%d", mpcRep.Rounds), "input + model"},
		{"2PC (dealer-assisted, WAN)", fmt.Sprintf("%.1f ms + %.0f ms net", 1000*mpcCompute.Seconds(), msF(mpcRep.WANTime)), mb(mpcRep.BytesOnWire), fmt.Sprintf("%d", mpcRep.Rounds), "input + model"},
	}
	speedupHE := heProjected.Seconds() / t1.omgPerQuery.Seconds()
	speedupMPC := (mpcRep.WANTime + mpcCompute).Seconds() / t1.omgPerQuery.Seconds()
	return &Table{
		ID:      "E7",
		Title:   "One tiny_conv inference under each protection mechanism",
		Claim:   "\"TEE architectures provide several orders of magnitude better performance\" (§II-B); SMPC is communication-bound (§I)",
		Headers: []string{"Mechanism", "Latency", "Traffic", "Rounds", "Protects"},
		Rows:    rows,
		// The HE and 2PC latencies are measured host compute; so is the
		// ratio note.
		Wall: Wall{Cols: []int{1}, Rows: []int{2, 3, 4, 5}, Notes: []int{0}},
		Notes: []string{
			fmt.Sprintf("OMG beats projected 2048-bit HE by %.0fx and WAN 2PC by %.0fx on this workload", speedupHE, speedupMPC),
			"HE/2PC latencies combine measured host compute with the simulated link model; plain/OMG are simulated device times",
			fmt.Sprintf("2PC offline phase consumed %d ring elements and %d bit-triple words of correlated randomness", mpcRep.ArithTripleElems, mpcRep.BitTripleWords),
			"the interactive-HE ReLU additionally reveals post-conv activations to the key holder — weaker model privacy than OMG",
		},
	}, nil
}

func cube(x float64) float64 { return x * x * x }
