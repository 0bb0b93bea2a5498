package core

import (
	"math"
	"testing"

	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/qlearn"
	"repro/internal/searchplan"
	"repro/internal/tensor"
)

// profiled builds a simulated LUT for a network and mode.
func profiled(t *testing.T, net *nn.Network, mode primitives.Mode) *lut.Table {
	t.Helper()
	pl := platform.JetsonTX2Like()
	tab, err := profile.Run(net, profile.NewSimSource(net, pl), profile.Options{Mode: mode, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// smallChain is a 7-searchable-layer chain with convs, pooling and FC.
func smallChain(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("small-chain", tensor.Shape{N: 1, C: 3, H: 32, W: 32})
	x := b.Conv("conv1", b.Input(), 16, 3, 1, 1)
	x = b.ReLU("relu1", x)
	x = b.Pool("pool1", x, nn.MaxPool, 2, 2, 0)
	x = b.Conv("conv2", x, 32, 3, 1, 1)
	x = b.Flatten("flat", x)
	x = b.FullyConnected("fc", x, 64)
	b.Softmax("prob", x)
	return b.MustBuild()
}

func TestSearchFindsChainOptimum(t *testing.T) {
	net := smallChain(t)
	for _, mode := range []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU} {
		tab := profiled(t, net, mode)
		opt, err := OptimalPlanned(searchplan.Compile(tab))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res := Search(tab, Config{Episodes: 1000, Seed: 7})
		if res.Time > opt.Time*1.001 {
			t.Errorf("%v: QS-DNN %.4gms > optimum %.4gms", mode, res.Time*1e3, opt.Time*1e3)
		}
		if got := tab.TotalTime(res.Assignment); math.Abs(got-res.Time) > 1e-12 {
			t.Errorf("%v: reported time %v != recomputed %v", mode, res.Time, got)
		}
	}
}

func TestExhaustiveAgreesWithOptimal(t *testing.T) {
	b := nn.NewBuilder("tiny", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Conv("conv", b.Input(), 8, 3, 1, 1)
	x = b.ReLU("relu", x)
	x = b.Flatten("flat", x)
	b.FullyConnected("fc", x, 10)
	net := b.MustBuild()
	tab := profiled(t, net, primitives.ModeGPGPU)
	opt, err := OptimalPlanned(searchplan.Compile(tab))
	if err != nil {
		t.Fatal(err)
	}
	exh, err := ExhaustivePlanned(searchplan.Compile(tab), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.Time-exh.Time) > 1e-12 {
		t.Errorf("optimal %.6g != exhaustive %.6g", opt.Time, exh.Time)
	}
	if exh.Episodes <= 0 {
		t.Error("exhaustive should report the enumeration count")
	}
}

func TestExhaustiveRefusesHugeSpace(t *testing.T) {
	tab := profiled(t, models.MustBuild("lenet5"), primitives.ModeGPGPU)
	if _, err := ExhaustivePlanned(searchplan.Compile(tab), 100); err == nil {
		t.Error("exhaustive should refuse a space above the cap")
	}
}

func TestOptimalRejectsBranches(t *testing.T) {
	b := nn.NewBuilder("branch", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Conv("stem", b.Input(), 8, 3, 1, 1)
	l := b.ReLU("l", x)
	r := b.ReLU("r", x)
	b.Concat("cat", l, r)
	net := b.MustBuild()
	tab := profiled(t, net, primitives.ModeCPU)
	if _, err := OptimalPlanned(searchplan.Compile(tab)); err == nil {
		t.Error("Optimal should reject non-chain networks")
	}
}

// Fig. 1: a hand-built three-layer trap where the per-layer-greedy
// choice walks into a conversion penalty and the RL search avoids it.
func TestGreedyTrapFig1(t *testing.T) {
	b := nn.NewBuilder("fig1", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Conv("l1", b.Input(), 8, 3, 1, 1)
	x = b.Conv("l2", x, 8, 3, 1, 1)
	b.Conv("l3", x, 8, 3, 1, 1)
	net := b.MustBuild()
	tab := lut.New(net, primitives.ModeCPU)

	fast := primitives.PArmCLGemm.Idx // NHWC
	slow := primitives.PVanilla.Idx   // NCHW
	for i := 1; i <= 3; i++ {
		for _, p := range tab.Candidates(i) {
			tab.SetTime(i, p, 10) // every other primitive: terrible
		}
		tab.SetTime(i, slow, 2)
	}
	// Layer 1: the NHWC primitive is the fastest *intermediate*
	// implementation, but both neighbours punish the layout change.
	tab.SetTime(1, fast, 1)
	for _, ed := range tab.Edges() {
		for _, fp := range tab.Candidates(ed.From) {
			for _, tp := range tab.Candidates(ed.To) {
				pen := 0.0
				if primitives.ByID(fp).Layout != primitives.ByID(tp).Layout {
					pen = 3.0
				}
				tab.SetPenalty(ed.From, ed.To, fp, tp, pen)
			}
		}
	}
	for _, p := range tab.Candidates(3) {
		tab.SetOutputPenalty(p, 0)
	}

	greedy := GreedyPlanned(searchplan.Compile(tab))
	if greedy.Assignment[1] != fast {
		t.Fatalf("greedy should fall for the fast layer-1 primitive, took %v",
			primitives.ByID(greedy.Assignment[1]).Name)
	}
	// Greedy: 1 + 2 + 2 + two 3.0 penalties (input edge NCHW->NHWC and
	// l1->l2 NHWC->NCHW) = 11; optimal all-slow = 6.
	if math.Abs(greedy.Time-11) > 1e-9 {
		t.Errorf("greedy time = %v, want 11", greedy.Time)
	}
	opt, err := OptimalPlanned(searchplan.Compile(tab))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.Time-6) > 1e-9 {
		t.Errorf("optimal time = %v, want 6", opt.Time)
	}
	res := Search(tab, Config{Episodes: 400, Seed: 3})
	if math.Abs(res.Time-opt.Time) > 1e-9 {
		t.Errorf("QS-DNN time = %v, want optimum %v", res.Time, opt.Time)
	}
	if res.Assignment[1] == fast {
		t.Error("QS-DNN should avoid the local minimum at layer 1")
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	a := Search(tab, Config{Episodes: 200, Seed: 42})
	b := Search(tab, Config{Episodes: 200, Seed: 42})
	if a.Time != b.Time {
		t.Errorf("same seed gave %v and %v", a.Time, b.Time)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("assignments differ at layer %d", i)
		}
	}
	c := Search(tab, Config{Episodes: 200, Seed: 43})
	// Different seed may legitimately find the same optimum, but the
	// curves should differ somewhere.
	same := true
	for i := range c.Curve {
		if c.Curve[i].Time != a.Curve[i].Time {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical episode curves")
	}
}

func TestCurveInvariants(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	res := Search(tab, Config{Episodes: 300, Seed: 1})
	if len(res.Curve) != 300 {
		t.Fatalf("curve has %d points", len(res.Curve))
	}
	prevBest := math.Inf(1)
	for _, pt := range res.Curve {
		if pt.Best > prevBest+1e-15 {
			t.Fatalf("best-so-far increased at episode %d", pt.Episode)
		}
		prevBest = pt.Best
		if pt.Time < pt.Best-1e-15 {
			t.Fatalf("episode time below best at %d", pt.Episode)
		}
		if pt.Epsilon < 0 || pt.Epsilon > 1 {
			t.Fatalf("epsilon %v out of range", pt.Epsilon)
		}
	}
	// Schedule: first half fully exploratory, last episodes greedy.
	if res.Curve[0].Epsilon != 1 {
		t.Error("first episode should be full exploration")
	}
	if res.Curve[299].Epsilon != 0 {
		t.Error("last episode should be full exploitation")
	}
}

func TestRLBeatsRandomSearch(t *testing.T) {
	// MobileNet-v1 GPGPU: the paper's Fig. 5 comparison. At equal
	// budget the RL search must find a configuration at least as good
	// as Random Search, and substantially better after convergence.
	net := models.MustBuild("mobilenet-v1")
	tab := profiled(t, net, primitives.ModeGPGPU)
	rl := Search(tab, Config{Episodes: 700, Seed: 5})
	rs := RandomSearchPlanned(searchplan.Compile(tab), 700, 5)
	if rl.Time >= rs.Time {
		t.Errorf("RL %.4gms should beat RS %.4gms at equal budget", rl.Time*1e3, rs.Time*1e3)
	}
	if rs.Time/rl.Time < 1.2 {
		t.Errorf("RL should be clearly ahead after convergence (RS/RL = %.2f)", rs.Time/rl.Time)
	}
}

func TestSearchBeatsBestSingleLibrary(t *testing.T) {
	net := models.MustBuild("squeezenet")
	tab := profiled(t, net, primitives.ModeGPGPU)
	_, bsl := BestSingleLibrary(tab)
	res := Search(tab, Config{Episodes: 1000, Seed: 11})
	if res.Time > bsl.Time {
		t.Errorf("QS-DNN %.4gms should not lose to BSL %.4gms", res.Time*1e3, bsl.Time*1e3)
	}
}

func TestSingleLibraryAssignments(t *testing.T) {
	net := smallChain(t)
	tab := profiled(t, net, primitives.ModeGPGPU)
	van := SingleLibrary(tab, primitives.Vanilla)
	for i := 1; i < tab.NumLayers(); i++ {
		if van.Assignment[i] != primitives.PVanilla.Idx {
			t.Fatalf("vanilla substitution layer %d = %v", i, van.Assignment[i])
		}
	}
	// cuDNN substitution: the FC layer must fall back to Vanilla.
	cud := SingleLibrary(tab, primitives.CuDNN)
	fcIdx := net.LayerIndex("fc")
	if got := primitives.ByID(cud.Assignment[fcIdx]).Lib; got != primitives.Vanilla {
		t.Errorf("cuDNN substitution FC layer uses %v, want Vanilla fallback", got)
	}
	convIdx := net.LayerIndex("conv1")
	if got := primitives.ByID(cud.Assignment[convIdx]).Lib; got != primitives.CuDNN {
		t.Errorf("cuDNN substitution conv layer uses %v", got)
	}
	// Vanilla must be the slowest single library of the classic CPU
	// libraries.
	for _, lib := range []primitives.Library{primitives.OpenBLAS, primitives.ATLAS} {
		if r := SingleLibrary(tab, lib); r.Time >= van.Time {
			t.Errorf("%v (%.4g) should beat Vanilla (%.4g)", lib, r.Time, van.Time)
		}
	}
}

func TestVanillaTimeMatchesSubstitution(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeCPU)
	if VanillaTime(tab) != SingleLibrary(tab, primitives.Vanilla).Time {
		t.Error("VanillaTime mismatch")
	}
}

func TestAblationsRun(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	base := Search(tab, Config{Episodes: 300, Seed: 2})
	noReplay := Search(tab, Config{Episodes: 300, Seed: 2, DisableReplay: true})
	noShape := Search(tab, Config{Episodes: 300, Seed: 2, DisableShaping: true})
	for name, r := range map[string]*Result{"no-replay": noReplay, "no-shaping": noShape} {
		if math.IsInf(r.Time, 1) || r.Time <= 0 {
			t.Errorf("%s: time %v", name, r.Time)
		}
	}
	// The ablated variants must never beat physics: all results are
	// valid configurations of the same table.
	opt, err := OptimalPlanned(searchplan.Compile(tab))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{base, noReplay, noShape} {
		if r.Time < opt.Time-1e-12 {
			t.Error("search reported a time below the true optimum")
		}
	}
}

func TestCustomScheduleAndConfigDefaults(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeCPU)
	res := Search(tab, Config{
		Episodes: 100,
		Schedule: []qlearn.Phase{{Epsilon: 0.5, Episodes: 100}},
		Seed:     1,
	})
	for _, pt := range res.Curve {
		if pt.Epsilon != 0.5 {
			t.Fatalf("custom schedule not honored: eps %v", pt.Epsilon)
		}
	}
	// Zero config picks the paper defaults (1000 episodes).
	full := Search(tab, Config{Seed: 1})
	if full.Episodes != 1000 {
		t.Errorf("default episodes = %d, want 1000", full.Episodes)
	}
}

func TestRandomSearchDeterministic(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	a := RandomSearchPlanned(searchplan.Compile(tab), 100, 9)
	b := RandomSearchPlanned(searchplan.Compile(tab), 100, 9)
	if a.Time != b.Time {
		t.Error("random search should be seed-deterministic")
	}
}

func TestConvergenceOnRealSearch(t *testing.T) {
	// The paper's observation: the search is converged well before the
	// budget ends. Assert convergence happens strictly before the last
	// tenth of the run.
	tab := profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU)
	res := Search(tab, Config{Episodes: 1000, Seed: 1})
	// With the paper's schedule the decisive drops come during the
	// exploitation phase (after the 500 exploration episodes) — the
	// Fig. 4 shape.
	final := res.Curve[len(res.Curve)-1].Best
	at := 0
	for res.Curve[at].Best > final*1.05 {
		at++
	}
	if at < 400 {
		t.Errorf("first episode within 5%% of the final best is %d — converged during full exploration, curve shape wrong", at)
	}
	// Fig. 5's meaning of "converged by 350": a complete 350-episode
	// search (schedule scaled to the budget) already matches a full
	// 1000-episode search.
	short := Search(tab, Config{Episodes: 350, Seed: 1})
	if short.Time > res.Time*1.01 {
		t.Errorf("350-episode complete search %.6g should be within 1%% of 1000-episode %.6g",
			short.Time, res.Time)
	}
	// Reward shaping should not hurt the area under the curve compared
	// to terminal-only rewards (it converges faster).
	shaped := areaUnderCurve(res)
	terminal := areaUnderCurve(Search(tab, Config{Episodes: 1000, Seed: 1, DisableShaping: true}))
	if shaped > terminal*1.1 {
		t.Errorf("shaped AUC %.4g should not be much worse than terminal-only %.4g", shaped, terminal)
	}
}

// areaUnderCurve integrates r's best-so-far curve: fast convergence to a
// good value gives a small area.
func areaUnderCurve(r *Result) float64 {
	var area float64
	for _, pt := range r.Curve {
		area += pt.Best
	}
	return area
}
