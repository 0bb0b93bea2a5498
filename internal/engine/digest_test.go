package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/kernels"
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

// activationDigest runs the assignment and returns the SHA-256 of
// every layer's activation (layout byte, then IEEE-754 bits in
// little-endian order), read as each kernel returns and before the
// arena reuses its memory, so that a one-ulp change in any layer shows
// up even where the final softmax would round it away. It fails the
// test unless Run's output equals the last layer's activation.
func activationDigest(t *testing.T, e *Engine, a []primitives.ID, in *tensor.Tensor) string {
	t.Helper()
	h := sha256.New()
	var last []float32
	res, err := e.run(a, in, func(i int, out *tensor.Tensor) {
		d := out.Data()
		buf := make([]byte, 1+4*len(d))
		buf[0] = byte(out.Layout())
		for j, v := range d {
			binary.LittleEndian.PutUint32(buf[1+4*j:], math.Float32bits(v))
		}
		h.Write(buf)
		if i == e.Net.OutputLayer() {
			last = out.ToLayout(tensor.NCHW).Data()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range res.Output.Data() {
		if math.Float32bits(v) != math.Float32bits(last[j]) {
			t.Fatalf("Run output %d is %v, the last layer gave %v", j, v, last[j])
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

// dagDigests pins the same per-layer digests for the branchy zoo
// networks, whose Concat, EltwiseAdd, fan-out and Dropout layers the
// chain MobileNets never execute. They were generated with the engine
// that allocated a fresh tensor for every activation.
var dagDigests = map[string]map[string]string{
	"googlenet": {
		"Vanilla":    "6774936e78942ad6c47b9e7c2e364a34fdc5307ca5121a3784fc5b36fc0711ce",
		"ATLAS/0":    "6774936e78942ad6c47b9e7c2e364a34fdc5307ca5121a3784fc5b36fc0711ce",
		"ATLAS/1":    "6774936e78942ad6c47b9e7c2e364a34fdc5307ca5121a3784fc5b36fc0711ce",
		"ATLAS/2":    "494ba345cc5bbc395da1168ff6cf04eb7834da7f5fc1a8ebad5b26be06be4b30",
		"OpenBLAS/0": "6774936e78942ad6c47b9e7c2e364a34fdc5307ca5121a3784fc5b36fc0711ce",
		"OpenBLAS/1": "6774936e78942ad6c47b9e7c2e364a34fdc5307ca5121a3784fc5b36fc0711ce",
		"OpenBLAS/2": "0509a01a72d8de02344c419c59977c3ef8760d93d36752e244fd78a1495c7f61",
		"NNPACK/0":   "9c00f933162d66a04dd8db28f30b3d37df627c5f5462d0d962af3b616122f321",
		"NNPACK/1":   "d053f4b44c9d90b491b014e1620ec0c64c98e3afc9765027707721dd9e2ca2dc",
		"ArmCL/0":    "c4b07f2e0e9ef969dcd5b28949bd8c2ccba50fe55de7ca92ecb704f501283c5f",
		"ArmCL/1":    "ef7e396fd7bbc389022af8b03a730c04f546efc03f49666db39f7988d59673dd",
		"Sparse/0":   "6774936e78942ad6c47b9e7c2e364a34fdc5307ca5121a3784fc5b36fc0711ce",
	},
	"squeezenet": {
		"Vanilla":    "cb10f8e9c7c64e2758680108c98dc3f051912daa383e850232e28989363eede1",
		"ATLAS/0":    "cb10f8e9c7c64e2758680108c98dc3f051912daa383e850232e28989363eede1",
		"ATLAS/1":    "cb10f8e9c7c64e2758680108c98dc3f051912daa383e850232e28989363eede1",
		"ATLAS/2":    "676bff81999c9ba4703ab9f46c88f207b0157b48aa22a468660400201a96636c",
		"OpenBLAS/0": "cb10f8e9c7c64e2758680108c98dc3f051912daa383e850232e28989363eede1",
		"OpenBLAS/1": "cb10f8e9c7c64e2758680108c98dc3f051912daa383e850232e28989363eede1",
		"OpenBLAS/2": "16fca827bfe5251affd82d13e50d5e8992af2e8563717697cd5ef1b185773fc6",
		"NNPACK/0":   "3b2b6c99e4e5074aee96c2230ae203cb77938f2463c01348475e2825306bdbe4",
		"ArmCL/0":    "c8f23576cf47d0375615337d724a2db248a9c30c0068a9dd0b64515de779da0c",
		"ArmCL/1":    "275fe2ec45568771c6d369bdb04cee0ef3214f3f6e801ea1a86f6a31ed535fb1",
		"Sparse/0":   "cb10f8e9c7c64e2758680108c98dc3f051912daa383e850232e28989363eede1",
	},
	"resnet18": {
		"Vanilla":    "67d14457f6a851eab6d090c5af57ce0008ae5fdefd0445d8c62f596d2f24b01a",
		"ATLAS/0":    "67d14457f6a851eab6d090c5af57ce0008ae5fdefd0445d8c62f596d2f24b01a",
		"ATLAS/1":    "67d14457f6a851eab6d090c5af57ce0008ae5fdefd0445d8c62f596d2f24b01a",
		"ATLAS/2":    "e52807ee85dbbe9926ed2d15f08aa2c1297e797db56410f59d25fab89dba5626",
		"OpenBLAS/0": "67d14457f6a851eab6d090c5af57ce0008ae5fdefd0445d8c62f596d2f24b01a",
		"OpenBLAS/1": "67d14457f6a851eab6d090c5af57ce0008ae5fdefd0445d8c62f596d2f24b01a",
		"OpenBLAS/2": "fda5935eebe93faa47ec21241eb210c95f361c128523ed8caae3d22ff1380792",
		"NNPACK/0":   "b66a10d6bfb16e3a648d57d290a25c2c7feab2ce0eaa27d70aeda7fae1e4a5a9",
		"ArmCL/0":    "d0e05f80cd0da78a1ff426625f432c4b9858d2854d984b20d22cdc749ffd5f93",
		"ArmCL/1":    "7ee8a8bf750396c50d7e9d5714a645ed4f5f40f27a8b80ca6929cf7b32e5a219",
		"Sparse/0":   "67d14457f6a851eab6d090c5af57ce0008ae5fdefd0445d8c62f596d2f24b01a",
	},
}

// TestDAGOutputDigests is TestMobileNetOutputDigests for googlenet,
// squeezenet and resnet18. It takes about a minute and a half, so it
// is skipped under -short and under the race detector; the MobileNet
// digests and the concurrent-Run test exercise the same kernels and
// arena code under -race.
func TestDAGOutputDigests(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large networks")
	}
	for _, name := range []string{"googlenet", "squeezenet", "resnet18"} {
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		e := New(net, 1, 0.35)
		in := testInput(net, 1)
		names, assigns := libraryAssignments(e)
		for j, a := range assigns {
			want := dagDigests[name][names[j]]
			if got := activationDigest(t, e, a, in); got != want {
				t.Errorf("%s %s: output digest %s, want %s", name, names[j], got, want)
			}
		}
	}
}

// TestMobileNetOutputDigests runs each library assignment of the
// MobileNets through the real engine and checks the digest of every
// layer's output. On mobilenet-v1-025 each OpenBLAS row runs a second
// time on an engine that records a tuned config for every layer its
// tunable bases (the packed-GEMM lowerings, on pointwise and
// depth-wise layers alike) run; the config is one that is
// bit-identical by contract, so it must reproduce the base row's
// digest. The full-width network is skipped under -short.
func TestMobileNetOutputDigests(t *testing.T) {
	tunedCfg := kernels.ConvTuned{Panel: 1, Workers: 2}
	for _, name := range []string{"mobilenet-v1-025", "mobilenet-v1"} {
		if name == "mobilenet-v1" && testing.Short() {
			continue
		}
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		e := New(net, 1, 0.35)
		tuned := New(net, 1, 0.35)
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
			for i, id := range a {
				if tunable(id) {
					tuned.SetTuned(i, id, tunedCfg)
				}
			}
			if got := activationDigest(t, tuned, a, in); got != want {
				t.Errorf("%s %s with tuned configs: output digest %s, want %s", name, names[j], got, want)
			}
		}
	}
}
