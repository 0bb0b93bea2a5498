package engine

import (
	"testing"

	"repro/internal/gemm"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/primitives"
)

// TestTunedTwinScratchFollowsNamedKernel: a base whose recorded config
// names a micro-kernel with another register tile than the dispatched
// one gets scratch sized for the named variant — the size the kernel
// itself asks for under that config, not the dispatched one's — and
// still runs bit-identically to its defaults, for every lowering.
func TestTunedTwinScratchFollowsNamedKernel(t *testing.T) {
	amr, anr, _ := gemm.KernelShape(gemm.ActiveKernel())
	other := ""
	for _, name := range gemm.KernelVariants() {
		if mr, nr, _ := gemm.KernelShape(name); mr != amr || nr != anr {
			other = name
			break
		}
	}
	if other == "" {
		t.Skip("every registered micro-kernel has the dispatched register tile")
	}
	net := testNet(t)
	e := New(net, 1, 1.0)
	in := testInput(net, 2)
	named := kernels.ConvTuned{Block: gemm.BlockConfig{Kernel: other}}
	mul := kernels.Gemm{Packed: true, Block: named.Block}
	for _, base := range tunableBases {
		a := convAssignment(e, base.Idx)
		ref, err := e.Run(a, in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Layers {
			e.SetTuned(i, base.Idx, named)
		}
		prog, err := e.compile(a)
		if err != nil {
			t.Fatal(err)
		}
		planned := 0
		for _, st := range prog.steps {
			l := net.Layers[st.layer]
			if l.Kind != nn.OpConv {
				continue
			}
			var want, dispatched int
			switch base.Lower {
			case primitives.Im2col:
				want = kernels.ConvIm2colScratch(l.InShape, l.Conv, mul, 1, 0)
				dispatched = kernels.ConvIm2colScratch(l.InShape, l.Conv, kernels.Packed, 1, 0)
			case primitives.Im2row:
				want = kernels.ConvIm2rowScratch(l.InShape, l.Conv, mul, 1, 0)
				dispatched = kernels.ConvIm2rowScratch(l.InShape, l.Conv, kernels.Packed, 1, 0)
			default:
				want = kernels.ConvKn2rowScratch(l.InShape, l.Conv, mul, 1)
				dispatched = kernels.ConvKn2rowScratch(l.InShape, l.Conv, kernels.Packed, 1)
			}
			if want == dispatched {
				t.Fatalf("%s %s: %s and %s need the same scratch; the test proves nothing", base.Name, l.Name, other, gemm.ActiveKernel())
			}
			if st.scratchLen != want {
				t.Errorf("%s %s: planned %d scratch elements, %s needs %d", base.Name, l.Name, st.scratchLen, other, want)
			}
			if prog.slots[st.scratchSlot] < st.scratchLen {
				t.Errorf("%s %s: scratch slot holds %d elements, fewer than %d", base.Name, l.Name, prog.slots[st.scratchSlot], st.scratchLen)
			}
			planned++
		}
		if planned == 0 {
			t.Fatalf("%s: no conv step", base.Name)
		}
		got, err := e.Run(a, in)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(ref.Output, got.Output) {
			t.Errorf("%s under %s: output differs from its defaults", base.Name, other)
		}
	}
}

// TestScratchSlotsNeverAlias checks the planner's one new promise: a
// step's scratch slot is none of the slots its inputs, conversions or
// output live in, on every library assignment of mobilenet-v1-025.
func TestScratchSlotsNeverAlias(t *testing.T) {
	e, _ := mobileNet025(t)
	names, assigns := libraryAssignments(e)
	withScratch := 0
	for j, a := range assigns {
		prog, err := e.compile(a)
		if err != nil {
			t.Fatal(err)
		}
		// slotOf maps each layer to the slot holding its output, -1 for
		// the caller's input.
		slotOf := make([]int, e.Net.Len())
		slotOf[0] = -1
		for _, st := range prog.steps {
			busy := map[int]bool{}
			for _, op := range st.in {
				busy[slotOf[op.src]] = true
				busy[op.conv.slot] = true
			}
			busy[st.out.slot] = true
			if st.scratchLen > 0 {
				withScratch++
				if busy[st.scratchSlot] {
					t.Errorf("%s layer %s: scratch slot %d is also an operand's or the output's", names[j], e.Net.Layers[st.layer].Name, st.scratchSlot)
				}
			}
			switch {
			case st.out.slot >= 0:
				slotOf[st.layer] = st.out.slot
			default: // in place or Dropout: the first input's memory
				slotOf[st.layer] = slotOf[st.in[0].src]
				if st.in[0].conv.slot >= 0 {
					slotOf[st.layer] = st.in[0].conv.slot
				}
			}
		}
	}
	if withScratch == 0 {
		t.Error("no step of any assignment was planned scratch")
	}
}
