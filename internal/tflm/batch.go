package tflm

import "fmt"

// Batched I/O: PlanBatch allocates capB stacked input and output rows, and
// InvokeBatch classifies the first b of them by running each through Invoke
// — copy row j into Input(0), Invoke, copy Output(0) into output row j.
// Invoke's prepped node execs are the only way a node runs; this is a thin
// staging form over them, kept for the callers that hand over a batch as
// stacked rows (perfbench's tflm.batch layer). It may be dropped together
// with those callers.
//
// Results are bit-exact with serial Invoke because they are serial Invoke.
// InvokeBatch overwrites the interpreter's Input(0) and Output(0) tensors;
// output rows (BatchOutput) stay valid until the next InvokeBatch. The rows
// are allocated at plan time, so InvokeBatch allocates nothing, and cycle
// metering charges b× the per-utterance node costs, as b Invoke calls do.

// batchPlan holds the stacked I/O rows of InvokeBatch.
type batchPlan struct {
	capB    int
	in, out []int8
}

// PlanBatch prepares the interpreter to run up to maxB stacked utterances
// per InvokeBatch call, allocating the stacked input and output rows now.
// Planning again replaces the previous plan (rows of the old one become
// stale). The model must have one int8 input and one int8 output.
func (ip *Interpreter) PlanBatch(maxB int) error {
	if maxB < 1 {
		return fmt.Errorf("tflm: batch capacity %d < 1", maxB)
	}
	m := ip.model
	if len(m.Inputs) != 1 || len(m.Outputs) != 1 {
		return fmt.Errorf("tflm: PlanBatch needs a single-input single-output model")
	}
	in, out := ip.Input(0), ip.Output(0)
	if in.Type != Int8 || out.Type != Int8 {
		return fmt.Errorf("tflm: PlanBatch needs int8 model I/O")
	}
	ip.batch = &batchPlan{
		capB: maxB,
		in:   make([]int8, maxB*in.NumElements()),
		out:  make([]int8, maxB*out.NumElements()),
	}
	return nil
}

// BatchCapacity returns the planned stacked-utterance capacity (0 before
// PlanBatch).
func (ip *Interpreter) BatchCapacity() int {
	if ip.batch == nil {
		return 0
	}
	return ip.batch.capB
}

// BatchInput returns utterance j's input row in the stacked plan; stage
// quantized features here before InvokeBatch.
func (ip *Interpreter) BatchInput(j int) []int8 {
	elems := ip.Input(0).NumElements()
	return ip.batch.in[j*elems : (j+1)*elems]
}

// BatchOutput returns utterance j's output row of the most recent
// InvokeBatch; valid until the next InvokeBatch on this interpreter.
func (ip *Interpreter) BatchOutput(j int) []int8 {
	elems := ip.Output(0).NumElements()
	return ip.batch.out[j*elems : (j+1)*elems]
}

// InvokeBatch classifies the b staged utterances (1 ≤ b ≤ BatchCapacity),
// one Invoke each, in row order.
func (ip *Interpreter) InvokeBatch(b int) error {
	bp := ip.batch
	if bp == nil {
		return fmt.Errorf("tflm: InvokeBatch before PlanBatch")
	}
	if b < 1 || b > bp.capB {
		return fmt.Errorf("tflm: batch size %d outside planned capacity [1, %d]", b, bp.capB)
	}
	in, out := ip.Input(0).I8, ip.Output(0).I8
	for j := 0; j < b; j++ {
		copy(in, ip.BatchInput(j))
		if err := ip.Invoke(); err != nil {
			return err
		}
		copy(ip.BatchOutput(j), out)
	}
	return nil
}
