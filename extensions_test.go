package qsdnn

import (
	"math"
	"testing"
)

func TestPlatformPresets(t *testing.T) {
	if len(Platforms()) != 5 {
		t.Errorf("platforms = %v", Platforms())
	}
	for _, name := range Platforms() {
		p, err := NewPlatform(name)
		if err != nil || p.Name != name {
			t.Errorf("NewPlatform(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := NewPlatform("bogus"); err == nil {
		t.Error("unknown platform should error")
	}
}

func TestProfileWithEnergyAndMultiObjective(t *testing.T) {
	net := MustModel("lenet5")
	tt, et, err := ProfileWithEnergy(net, NewTX2Platform(), ModeGPGPU, 3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := OptimizeMulti(tt, et, 0, SearchConfig{Episodes: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Seconds <= 0 || fast.Joules <= 0 {
		t.Fatalf("bad multi result %+v", fast)
	}
	front, err := Pareto(tt, et, []float64{0, 10}, SearchConfig{Episodes: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Error("empty Pareto front")
	}
}

func TestPBQPExposed(t *testing.T) {
	net := MustModel("mobilenet-v1")
	tab, err := Profile(net, NewTX2Platform(), ModeGPGPU, 3)
	if err != nil {
		t.Fatal(err)
	}
	pb := PBQP(tab)
	opt, err := Optimal(tab)
	if err != nil {
		t.Fatal(err)
	}
	// MobileNet is a chain: PBQP must be exact.
	if math.Abs(pb.Time-opt.Time) > 1e-12 {
		t.Errorf("PBQP %.6g != optimal %.6g on a chain", pb.Time, opt.Time)
	}
}

func TestEnergyOfExposed(t *testing.T) {
	net := MustModel("lenet5")
	tt, et, err := ProfileWithEnergy(net, NewTX2Platform(), ModeCPU, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Search(tt, SearchConfig{Episodes: 100, Seed: 1})
	if e := EnergyOf(et, res); e <= 0 {
		t.Errorf("EnergyOf = %v", e)
	}
}

func TestXavierOffloadsMoreThanNano(t *testing.T) {
	// Cross-preset behavior: the board with cheap transfers and a big
	// GPU should put at least as many layers on the GPU as the
	// entry-level board.
	net := MustModel("squeezenet")
	countGPU := func(name string) int {
		pl, err := NewPlatform(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Optimize(net, pl, Options{Mode: ModeGPGPU, Episodes: 600, Samples: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, c := range rep.Choices {
			if c.Processor == "GPU" {
				n++
			}
		}
		return n
	}
	xavier := countGPU("xavier-like")
	nano := countGPU("nano-like")
	if xavier < nano {
		t.Errorf("xavier offloads %d layers, nano %d — expected xavier >= nano", xavier, nano)
	}
}
