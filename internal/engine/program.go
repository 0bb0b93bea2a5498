package engine

import (
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// A program is one Run compiled: for every layer, the kernel that runs
// it, the conversions its inputs need, and the arena slot it writes.
// Slots are planned by liveness, so an activation's memory is reused
// as soon as its last consumer has run.
type program struct {
	steps []step
	// slots holds each arena slot's capacity in float32 elements.
	slots []int
}

// step executes one layer.
type step struct {
	layer int
	prim  *primitives.Primitive
	// cfg is the config SetTuned recorded for (layer, prim); the zero
	// config runs the defaults.
	cfg kernels.ConvTuned
	in  []operand
	// out is where the kernel writes. With inPlace the kernel
	// overwrites its first input instead, and a Dropout step writes
	// nowhere: its output is its input.
	out     view
	inPlace bool
	// scratchLen is the workspace the kernel takes, in float32
	// elements, and scratchSlot the arena slot that backs it; the slot
	// is the step's alone while it runs and dead once it returns. A
	// zero scratchLen is a kernel that takes no scratch.
	scratchSlot, scratchLen int
}

// operand is one kernel input: activation src, converted into conv
// first when its layout differs from the primitive's.
type operand struct {
	src  int
	conv view
}

// view is a tensor over a prefix of an arena slot; slot -1 is no view.
type view struct {
	slot   int
	shape  tensor.Shape
	layout tensor.Layout
}

var noView = view{slot: -1}

// buffer is the memory behind one or more activations during
// compilation: a Dropout or a kernel run in place hands its input's
// buffer on to its output.
type buffer struct {
	slot int // -1 for the caller's input, which is never written
	// reads counts the reads still to come of every activation the
	// buffer holds. The slot is dead once it reaches zero.
	reads int
}

// compile plans the run of the assignment. Layer i's output has one
// read per consumer input edge; a buffer's slot returns to the dead
// list as soon as its last read has run, and a step takes the first
// dead slot with room for its output, growing the largest dead slot
// or opening a new one when none has. A kernel that takes scratch
// (see scratchLen) gets a slot of its own the same way, next to its
// inputs and output, and the slot dies as the step ends, so a later
// activation reuses it. ReLU, BatchNorm and EltwiseAdd
// overwrite their first input when that is its last read. The caller's
// input is never written; the network output is the last layer, so no
// step comes after it to reuse its slot.
func (e *Engine) compile(assignment []primitives.ID) (*program, error) {
	net := e.Net
	reads := make([]int, net.Len())
	edges := 0
	for _, l := range net.Layers {
		for _, src := range l.Inputs {
			reads[src]++
		}
		edges += len(l.Inputs)
	}
	prog := &program{steps: make([]step, 0, net.Len()-1)}
	// The steps' operands and the buffers are cut from two slabs sized
	// up front — a buffer per layer output and per conversion at most —
	// so that compiling costs a handful of allocations, not a few per
	// step. The buffer slab never grows, so its pointers stay valid.
	operands := make([]operand, edges)
	bufs := make([]buffer, 0, net.Len()+edges)
	newBuffer := func(slot, reads int) *buffer {
		bufs = append(bufs, buffer{slot: slot, reads: reads})
		return &bufs[len(bufs)-1]
	}
	var ins []*buffer
	var dead []bool
	take := func(elems int) int {
		best := -1
		for s, d := range dead {
			if !d {
				continue
			}
			if prog.slots[s] >= elems {
				dead[s] = false
				return s
			}
			if best < 0 || prog.slots[s] > prog.slots[best] {
				best = s
			}
		}
		if best < 0 {
			prog.slots = append(prog.slots, 0)
			dead = append(dead, false)
			best = len(prog.slots) - 1
		}
		prog.slots[best] = elems
		dead[best] = false
		return best
	}
	release := func(b *buffer) {
		if b.reads--; b.reads == 0 && b.slot >= 0 {
			dead[b.slot] = true
		}
	}
	bufOf := make([]*buffer, net.Len())
	layoutOf := make([]tensor.Layout, net.Len())
	bufOf[0], layoutOf[0] = newBuffer(-1, reads[0]), tensor.NCHW

	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		p := primitives.ByID(assignment[i])
		if err := checkExecutable(l, p); err != nil {
			return nil, err
		}
		st := step{layer: i, prim: p, cfg: e.tuned[tunedKey{i, p.Idx}], in: operands[:len(l.Inputs)], out: noView}
		operands = operands[len(l.Inputs):]
		ins = ins[:0]
		for k, src := range l.Inputs {
			st.in[k] = operand{src: src, conv: noView}
			ins = append(ins, bufOf[src])
			if layoutOf[src] == p.Layout {
				continue
			}
			shape := net.Layers[src].OutShape
			conv := newBuffer(take(shape.Elems()), 1)
			st.in[k].conv = view{conv.slot, shape, p.Layout}
			release(ins[k]) // the conversion was src's read
			ins[k] = conv
		}

		var out *buffer
		fresh := false
		switch {
		case l.Kind == nn.OpDropout:
			out = ins[0]
		case inPlace(l.Kind) && ins[0].slot >= 0 && ins[0].reads == count(ins, ins[0]):
			out, st.inPlace = ins[0], true
		default:
			out, fresh = newBuffer(take(l.OutShape.Elems()), 0), true
			st.out = view{out.slot, l.OutShape, p.Layout}
		}
		if n := e.scratchLen(l, st.prim, st.cfg); n > 0 {
			st.scratchSlot, st.scratchLen = take(n), n
		}
		out.reads += reads[i]
		for _, b := range ins {
			release(b)
		}
		if st.scratchLen > 0 {
			dead[st.scratchSlot] = true
		}
		if fresh && out.reads == 0 {
			dead[out.slot] = true // nothing reads the output
		}
		bufOf[i], layoutOf[i] = out, p.Layout
		prog.steps = append(prog.steps, st)
	}
	return prog, nil
}

// inPlace reports whether the layer's kernel may overwrite its first
// input.
func inPlace(k nn.OpKind) bool {
	return k == nn.OpReLU || k == nn.OpBatchNorm || k == nn.OpEltwiseAdd
}

// count returns how many entries of bs are b.
func count(bs []*buffer, b *buffer) int {
	n := 0
	for _, x := range bs {
		if x == b {
			n++
		}
	}
	return n
}
