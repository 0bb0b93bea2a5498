package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// digestLibraries are the CPU libraries whose whole-network
// substitutions the digest test pins, in registry order.
var digestLibraries = []primitives.Library{
	primitives.ATLAS, primitives.OpenBLAS, primitives.NNPACK, primitives.ArmCL, primitives.Sparse,
}

// libraryAssignments returns the all-Vanilla assignment plus, for each
// CPU library and each k, the assignment that runs the library's k-th
// candidate on every layer it supports (its last candidate where it
// has fewer) and Vanilla elsewhere. Together they execute every CPU
// primitive the network's layers admit: every lowering, the NHWC
// families and their layout conversions.
func libraryAssignments(e *Engine) (names []string, assigns [][]primitives.ID) {
	names = append(names, "Vanilla")
	assigns = append(assigns, e.VanillaAssignment())
	for _, lib := range digestLibraries {
		for k := 0; ; k++ {
			a := e.VanillaAssignment()
			more := false
			for i, l := range e.Net.Layers {
				var own []*primitives.Primitive
				for _, p := range primitives.Candidates(l, primitives.ModeCPU) {
					if p.Lib == lib {
						own = append(own, p)
					}
				}
				if len(own) == 0 || i == 0 {
					continue
				}
				more = more || k < len(own)
				a[i] = own[min(k, len(own)-1)].Idx
			}
			if !more {
				break
			}
			names = append(names, fmt.Sprintf("%v/%d", lib, k))
			assigns = append(assigns, a)
		}
	}
	return names, assigns
}

// activationDigest executes the assignment the way Run does and
// returns the SHA-256 of every layer's activation (layout byte, then
// IEEE-754 bits in little-endian order), so that a one-ulp change in
// any layer shows up even where the final softmax would round it away.
// It fails the test unless Run's own output equals the replayed one.
func activationDigest(t *testing.T, e *Engine, a []primitives.ID, in *tensor.Tensor) string {
	t.Helper()
	net := e.Net
	h := sha256.New()
	acts := make([]*tensor.Tensor, net.Len())
	acts[0] = in.ToLayout(tensor.NCHW)
	for i := 1; i < net.Len(); i++ {
		l, p := net.Layers[i], primitives.ByID(a[i])
		inputs := make([]*tensor.Tensor, len(l.Inputs))
		for k, src := range l.Inputs {
			inputs[k] = acts[src].ToLayout(p.Layout)
		}
		out, err := e.exec(i, l, p, inputs)
		if err != nil {
			t.Fatalf("layer %s: %v", l.Name, err)
		}
		acts[i] = out
		d := out.Data()
		buf := make([]byte, 1+4*len(d))
		buf[0] = byte(out.Layout())
		for j, v := range d {
			binary.LittleEndian.PutUint32(buf[1+4*j:], math.Float32bits(v))
		}
		h.Write(buf)
	}
	res, err := e.Run(a, in)
	if err != nil {
		t.Fatal(err)
	}
	want := acts[net.OutputLayer()].ToLayout(tensor.NCHW).Data()
	for j, v := range res.Output.Data() {
		if math.Float32bits(v) != math.Float32bits(want[j]) {
			t.Fatalf("Run output %d is %v, replayed layers give %v", j, v, want[j])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mobileNetDigests pins the bit-exact activations of the two
// MobileNets under every library assignment (weights and input seed 1,
// density 0.35, one worker). They were generated with the original
// At/Set-indexed kernels; a kernel rewrite must keep every layer's
// output bit-identical, so it must leave these digests unchanged.
var mobileNetDigests = map[string]map[string]string{
	"mobilenet-v1-025": {
		"Vanilla":    "7aa2225b9d18573d9e7456776e9d00e4fe3dd5f7b2f616443eafc5651742ce83",
		"ATLAS/0":    "7aa2225b9d18573d9e7456776e9d00e4fe3dd5f7b2f616443eafc5651742ce83",
		"ATLAS/1":    "7aa2225b9d18573d9e7456776e9d00e4fe3dd5f7b2f616443eafc5651742ce83",
		"ATLAS/2":    "b683473ccb6c7721d2ee895647480274a7a8459b73db7f7e8c87161e176636d8",
		"OpenBLAS/0": "7aa2225b9d18573d9e7456776e9d00e4fe3dd5f7b2f616443eafc5651742ce83",
		"OpenBLAS/1": "7aa2225b9d18573d9e7456776e9d00e4fe3dd5f7b2f616443eafc5651742ce83",
		"OpenBLAS/2": "749971983a4ce5d238fd8f1704b89dc94da7de2366fdd998cb59710d581f433a",
		"NNPACK/0":   "4a068b4e2b1b7f94e362cc1693d3b72b2d82e9e07c1b2a1b7e0e15e91a85f52d",
		"ArmCL/0":    "96380f95a16357bda95f9102153f0c88a03ab459dddd64d653f9ffc606939c16",
		"Sparse/0":   "7aa2225b9d18573d9e7456776e9d00e4fe3dd5f7b2f616443eafc5651742ce83",
	},
	"mobilenet-v1": {
		"Vanilla":    "dc08410ca62df33eb2e97189823726c45dcbc2be973ca7320080337aa8ec4e89",
		"ATLAS/0":    "dc08410ca62df33eb2e97189823726c45dcbc2be973ca7320080337aa8ec4e89",
		"ATLAS/1":    "dc08410ca62df33eb2e97189823726c45dcbc2be973ca7320080337aa8ec4e89",
		"ATLAS/2":    "757ac0164b94e237926ffb361046b3971dbd931ea3c51a3bf68b3c586dbc36d1",
		"OpenBLAS/0": "dc08410ca62df33eb2e97189823726c45dcbc2be973ca7320080337aa8ec4e89",
		"OpenBLAS/1": "dc08410ca62df33eb2e97189823726c45dcbc2be973ca7320080337aa8ec4e89",
		"OpenBLAS/2": "3d9cd68cc5d56439c5cecb549956a4fae8fc2268aeddd6249a8822904ec40072",
		"NNPACK/0":   "da32bf238a9e484a8fa5f3be6fbfb1baae5b204104c84fecf35fc92a284d7ccf",
		"ArmCL/0":    "14945cf35f095d33e08288a3a4d5702d00e0ef9bb0aeafa9c5fff845a7721258",
		"Sparse/0":   "dc08410ca62df33eb2e97189823726c45dcbc2be973ca7320080337aa8ec4e89",
	},
}

// twinAssignment returns a with every tunable base swapped for its
// tuned twin.
func twinAssignment(a []primitives.ID) []primitives.ID {
	tw := append([]primitives.ID(nil), a...)
	for i, id := range tw {
		if twin, ok := primitives.TunedOf(id); ok {
			tw[i] = twin
		}
	}
	return tw
}

// TestMobileNetOutputDigests runs each library assignment of the
// MobileNets through the real engine and checks the digest of every
// layer's output. On mobilenet-v1-025 each OpenBLAS row runs a second
// time with its tunable bases (the packed-GEMM lowerings, on pointwise
// and depth-wise layers alike) swapped for their tuned twins at the
// zero config, which must reproduce the base row's digest.
// The full-width network is skipped under -short.
func TestMobileNetOutputDigests(t *testing.T) {
	primitives.EnableTunedVariants()
	for _, name := range []string{"mobilenet-v1-025", "mobilenet-v1"} {
		if name == "mobilenet-v1" && testing.Short() {
			continue
		}
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		e := New(net, 1, 0.35)
		in := testInput(net, 1)
		names, assigns := libraryAssignments(e)
		for j, a := range assigns {
			want := mobileNetDigests[name][names[j]]
			if got := activationDigest(t, e, a, in); got != want {
				t.Errorf("%s %s: output digest %s, want %s", name, names[j], got, want)
			}
			if name != "mobilenet-v1-025" || !strings.HasPrefix(names[j], "OpenBLAS/") {
				continue
			}
			if got := activationDigest(t, e, twinAssignment(a), in); got != want {
				t.Errorf("%s %s with tuned twins: output digest %s, want %s", name, names[j], got, want)
			}
		}
	}
}
