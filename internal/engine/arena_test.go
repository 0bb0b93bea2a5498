package engine

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// aliasNet is built to tempt the arena planner into every unsafe
// reuse: a Dropout and a ReLU straight on the caller's input, a
// BatchNorm and an EltwiseAdd whose first operand is that input, an
// add of an activation to itself, a Dropout between a ReLU and a
// Concat, and an in-place ReLU as the network output.
func aliasNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("alias-test", tensor.Shape{N: 1, C: 3, H: 8, W: 8})
	in := b.Input()
	relu := b.ReLU("relu-in", b.Dropout("drop-in", in))
	bn := b.BatchNorm("bn-in", in)
	sum := b.EltwiseAdd("add-in", in, relu)
	twice := b.EltwiseAdd("add-self", sum, sum)
	x := b.Conv("conv", twice, 5, 3, 1, 1)
	x = b.Dropout("drop", b.ReLU("relu", x))
	x = b.Concat("cat", x, bn)
	x = b.BatchNorm("bn", x)
	x = b.FullyConnected("fc", b.Flatten("flat", x), 6)
	b.ReLU("out", x)
	return b.MustBuild()
}

// randomAssignments returns n assignments drawing every layer's
// primitive uniformly from its CPU candidates.
func randomAssignments(net *nn.Network, n int, seed int64) [][]primitives.ID {
	rng := rand.New(rand.NewSource(seed))
	var out [][]primitives.ID
	for range n {
		a := make([]primitives.ID, net.Len())
		a[0] = primitives.PVanilla.Idx
		for i := 1; i < net.Len(); i++ {
			cands := primitives.Candidates(net.Layers[i], primitives.ModeCPU)
			a[i] = cands[rng.Intn(len(cands))].Idx
		}
		out = append(out, a)
	}
	return out
}

// replay executes the assignment without an arena, with a fresh tensor
// for every activation and conversion and fresh scratch for every
// kernel, and returns the output in NCHW.
func replay(t *testing.T, e *Engine, a []primitives.ID, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	acts := make([]*tensor.Tensor, e.Net.Len())
	acts[0] = in.ToLayout(tensor.NCHW).Clone()
	for i := 1; i < e.Net.Len(); i++ {
		l, p := e.Net.Layers[i], primitives.ByID(a[i])
		inputs := make([]*tensor.Tensor, len(l.Inputs))
		for k, src := range l.Inputs {
			inputs[k] = acts[src].ToLayout(p.Layout)
		}
		var dst *tensor.Tensor
		if l.Kind != nn.OpDropout {
			dst = tensor.New(l.OutShape, p.Layout)
		}
		scratch := make([]float32, e.scratchLen(l, p, kernels.ConvTuned{}))
		out, err := e.execCfg(dst, i, l, p, inputs, kernels.ConvTuned{}, scratch)
		if err != nil {
			t.Fatalf("layer %s: %v", l.Name, err)
		}
		acts[i] = out
	}
	return acts[e.Net.OutputLayer()].ToLayout(tensor.NCHW)
}

func bitEqual(a, b *tensor.Tensor) bool {
	x, y := a.Data(), b.Data()
	if a.Shape() != b.Shape() || a.Layout() != b.Layout() || len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

// TestRunMatchesFreshTensors checks that the arena changes no bit of
// the output: on the aliasing net and the test net, under random
// assignments (which mix layouts, so conversions land in slots too),
// Run must equal a replay that allocates every tensor afresh. The
// caller's input must come back bit-unchanged.
func TestRunMatchesFreshTensors(t *testing.T) {
	for _, net := range []*nn.Network{aliasNet(t), testNet(t)} {
		e := New(net, 7, 0.5)
		in := testInput(net, 8)
		orig := in.Clone()
		for j, a := range append(randomAssignments(net, 40, 11), e.VanillaAssignment()) {
			res, err := e.Run(a, in)
			if err != nil {
				t.Fatalf("%s assignment %d: %v", net.Name, j, err)
			}
			if !bitEqual(replay(t, e, a, in), res.Output) {
				t.Errorf("%s assignment %d: Run output differs from the fresh-tensor replay", net.Name, j)
			}
			if !bitEqual(orig, in) {
				t.Fatalf("%s assignment %d: Run wrote into the caller's input", net.Name, j)
			}
		}
	}
}

// TestCompileReusesSlots pins the planner's decisions on the aliasing
// net: ReLU, BatchNorm and EltwiseAdd run in place only where their
// first input is a dead arena slot, never on the caller's input.
func TestCompileReusesSlots(t *testing.T) {
	net := aliasNet(t)
	e := New(net, 7, 0.5)
	prog, err := e.compile(e.VanillaAssignment())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"add-self": true, "relu": true, "bn": true, "out": true}
	for _, st := range prog.steps {
		l := net.Layers[st.layer]
		if st.inPlace != want[l.Name] {
			t.Errorf("%s: inPlace = %v, want %v", l.Name, st.inPlace, want[l.Name])
		}
		if l.Kind == nn.OpDropout && st.out.slot >= 0 {
			t.Errorf("%s: a Dropout should write nowhere", l.Name)
		}
	}

	// On the all-Vanilla mobilenet-v1-025 every layer after conv1 runs
	// in place or reads one live activation, so the arena is the
	// largest input-output pair: conv2_pw's 16x112x112 output beside
	// its 8x112x112 input.
	mn, _ := mobileNet025(t)
	prog, err = mn.compile(mn.VanillaAssignment())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range prog.slots {
		total += n
	}
	if want := (16 + 8) * 112 * 112; total != want {
		t.Errorf("mobilenet-v1-025 arena holds %d values, want %d", total, want)
	}
}

// mobileNet025 returns mobilenet-v1-025 on a single-worker engine with
// the digest test's weights and input.
func mobileNet025(t *testing.T, opts ...Option) (*Engine, *tensor.Tensor) {
	t.Helper()
	net, err := models.Build("mobilenet-v1-025")
	if err != nil {
		t.Fatal(err)
	}
	return New(net, 1, 0.35, opts...), testInput(net, 1)
}

// namedAssignment returns the libraryAssignments row called name.
func namedAssignment(t *testing.T, e *Engine, name string) []primitives.ID {
	t.Helper()
	names, assigns := libraryAssignments(e)
	for j, n := range names {
		if n == name {
			return assigns[j]
		}
	}
	t.Fatalf("no assignment %s", name)
	return nil
}

// TestRunOutputOutlivesLaterRuns holds one Run's output across later
// Runs of other assignments: the output is a copy, not an arena slot.
func TestRunOutputOutlivesLaterRuns(t *testing.T) {
	e, in := mobileNet025(t)
	first, err := e.Run(namedAssignment(t, e, "ArmCL/0"), in)
	if err != nil {
		t.Fatal(err)
	}
	held := first.Output.Clone()
	for _, name := range []string{"Vanilla", "OpenBLAS/2", "ArmCL/0"} {
		if _, err := e.Run(namedAssignment(t, e, name), in); err != nil {
			t.Fatal(err)
		}
	}
	if !bitEqual(held, first.Output) {
		t.Error("a later Run changed a held output")
	}
}

// TestRunReleasesArena checks that Run holds on to nothing: once it
// has returned and the collector has run, the heap is back where it
// was before the Run, apart from the result.
func TestRunReleasesArena(t *testing.T) {
	e, in := mobileNet025(t)
	a := namedAssignment(t, e, "OpenBLAS/2")
	prog, err := e.compile(a)
	if err != nil {
		t.Fatal(err)
	}
	arena := 0
	for _, n := range prog.slots {
		arena += 4 * n
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	if _, err := e.Run(a, in); err != nil { // warm up
		t.Fatal(err)
	}
	before := heap()
	res, err := e.Run(a, in)
	if err != nil {
		t.Fatal(err)
	}
	held := heap() - before
	runtime.KeepAlive(e)
	runtime.KeepAlive(res)
	if tol := int64(arena / 8); held > tol {
		t.Errorf("Run left %d bytes on the heap, more than %d (the arena is %d bytes)", held, tol, arena)
	}
}

// TestConcurrentRunsMatchSerial runs two assignments on one engine
// from two goroutines at once; each must reproduce its serial output.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	e, in := mobileNet025(t, Parallelism(2))
	var assigns [][]primitives.ID
	var want []*tensor.Tensor
	for _, name := range []string{"ArmCL/0", "OpenBLAS/2"} {
		a := namedAssignment(t, e, name)
		res, err := e.Run(a, in)
		if err != nil {
			t.Fatal(err)
		}
		assigns, want = append(assigns, a), append(want, res.Output)
	}
	var wg sync.WaitGroup
	errs := make([]string, len(assigns))
	for g := range assigns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				res, err := e.Run(assigns[g], in)
				if err != nil {
					errs[g] = err.Error()
					return
				}
				if !bitEqual(want[g], res.Output) {
					errs[g] = "output differs from the serial run"
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, msg := range errs {
		if msg != "" {
			t.Errorf("goroutine %d: %s", g, msg)
		}
	}
}

// allocated returns the bytes and the number of heap allocations fn
// makes.
func allocated(fn func()) (bytes, count int64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return int64(b.TotalAlloc - a.TotalAlloc), int64(b.Mallocs - a.Mallocs)
}

// TestRunAllocationBound is the arena's allocation gate: a
// steady-state Run of mobilenet-v1-025 allocates no more than its
// planned slots — activations, conversions and kernel scratch alike —
// plus a little bookkeeping (the program, the timing slices, the
// tensor headers and the output copy), in at most allocsPerStep
// allocations per step, and that is less than the bytes of all the
// layer outputs, what allocating every activation afresh would take.
func TestRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// A step allocates the tensor headers of its output and its
	// conversions, and a gathering conv its packer; no step allocates
	// a buffer of its own.
	const allocsPerStep = 2
	e, in := mobileNet025(t)
	outputs := int64(0)
	for _, l := range e.Net.Layers[1:] {
		outputs += int64(l.OutShape.Bytes())
	}
	bookkeeping := int64(1024 * e.Net.Len())
	names, assigns := libraryAssignments(e)
	for j, a := range assigns {
		prog, err := e.compile(a)
		if err != nil {
			t.Fatal(err)
		}
		slots := int64(0)
		for _, n := range prog.slots {
			slots += 4 * int64(n)
		}
		if _, err := e.Run(a, in); err != nil { // warm up
			t.Fatal(err)
		}
		const runs = 3
		bytes, count := allocated(func() {
			for range runs {
				if _, err := e.Run(a, in); err != nil {
					t.Fatal(err)
				}
			}
		})
		bytes, count = bytes/runs, count/runs
		t.Logf("%s: %d bytes (%d slot bytes), %d allocations over %d steps", names[j], bytes, slots, count, len(prog.steps))
		if bound := slots + bookkeeping; bytes > bound {
			t.Errorf("%s: Run allocates %d bytes, more than its %d planned slot bytes and %d for bookkeeping",
				names[j], bytes, slots, bookkeeping)
		}
		if bound := int64(allocsPerStep * len(prog.steps)); count > bound {
			t.Errorf("%s: Run makes %d allocations, more than %d for its %d steps", names[j], count, bound, len(prog.steps))
		}
		if bytes >= outputs {
			t.Errorf("%s: Run allocates %d bytes, no less than the %d bytes of all layer outputs", names[j], bytes, outputs)
		}
	}
}

// kernelNet holds one conv of each kind whose kernel once allocated
// its own buffers: a grouped 3x3 conv (the per-group lowering), a dense
// 3x3 stride-1 conv (the Winograd candidates) and a 5x5 stride-1 conv
// (the FFT candidate), with a BatchNorm, ReLUs and an EltwiseAdd to run
// in place. Every activation holds 16x16x16 values.
func kernelNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("kernel-test", tensor.Shape{N: 1, C: 16, H: 16, W: 16})
	g := b.ReLU("relu-g", b.Conv2D("conv-g3", b.Input(), nn.ConvParams{
		OutChannels: 16, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2,
	}))
	x := b.BatchNorm("bn", b.Conv("conv-3", g, 16, 3, 1, 1))
	x = b.Conv("conv-5", x, 16, 5, 1, 2)
	b.ReLU("out", b.EltwiseAdd("add", x, g))
	return b.MustBuild()
}

// TestRunAllocationBoundEveryKernel extends TestRunAllocationBound to
// the kernels mobilenet-v1-025 does not run: on kernelNet, a
// steady-state Run under every CPU library row allocates no more than
// its planned slots, its output copy and bookkeeping, so the grouped
// lowering, the
// Winograd filter transform and the NHWC staging of the Winograd and
// FFT kernels all work in planned scratch. A row that runs nnpack-fft
// is exempt: ConvFFT keeps its float64 transform grids to itself until
// ROADMAP item 12 decides whether float64 stays.
func TestRunAllocationBoundEveryKernel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net := kernelNet(t)
	e := New(net, 1, 0.5)
	in := testInput(net, 4)
	// Bookkeeping is the program, the timing slices, the tensor headers,
	// the kernels' closures and packers, and the page the runtime rounds
	// the arena up to.
	bookkeeping := int64(2048*net.Len() + 8192)
	output := int64(net.Layers[net.OutputLayer()].OutShape.Bytes())
	names, assigns := libraryAssignments(e)
	checked := 0
	for j, a := range assigns {
		if slices.Contains(a, primitives.PNNPackFFT.Idx) {
			continue
		}
		prog, err := e.compile(a)
		if err != nil {
			t.Fatal(err)
		}
		slots := int64(0)
		for _, n := range prog.slots {
			slots += 4 * int64(n)
		}
		if _, err := e.Run(a, in); err != nil { // warm up
			t.Fatal(err)
		}
		const runs = 3
		bytes, count := allocated(func() {
			for range runs {
				if _, err := e.Run(a, in); err != nil {
					t.Fatal(err)
				}
			}
		})
		bytes, count = bytes/runs, count/runs
		t.Logf("%s: %d bytes (%d slot bytes), %d allocations over %d steps", names[j], bytes, slots, count, len(prog.steps))
		if bound := slots + output + bookkeeping; bytes > bound {
			t.Errorf("%s: Run allocates %d bytes, more than its %d planned slot bytes, %d output bytes and %d for bookkeeping",
				names[j], bytes, slots, output, bookkeeping)
		}
		checked++
	}
	if checked < len(assigns)-1 {
		t.Errorf("checked %d of %d library rows; only the nnpack-fft row is exempt", checked, len(assigns))
	}
}
