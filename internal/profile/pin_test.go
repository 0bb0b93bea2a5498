package profile

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// TestLUTBytesPinned pins the SHA-256 of the marshalled tables the
// profiling protocol produces from each simulator source, strict and
// robust, with and without the seeded fault schedule. Any change to
// how a source is measured, wrapped or aggregated changes them.
func TestLUTBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		net    string
		mode   primitives.Mode
		energy bool
		robust bool
		faults bool
		want   string
	}{
		{"lenet5/cpu/strict", "lenet5", primitives.ModeCPU, false, false, false, "51fcb56ab3a181109fcbd2a0afe03b9ab38b7b58f2de0cc08898de5931eeadaf"},
		{"lenet5/cpu/robust", "lenet5", primitives.ModeCPU, false, true, false, "3cba61bbda403e0d2eeedf9f83647416b671e82e7547bd655dfe2be178877f15"},
		{"lenet5/gpgpu/strict", "lenet5", primitives.ModeGPGPU, false, false, false, "544bad0b63ee44071aff8f770e4a6e652fcb870b6231674b33da4eb7a9a8e4ea"},
		{"lenet5/gpgpu/robust", "lenet5", primitives.ModeGPGPU, false, true, false, "f8cffdc980ba97f311af2cbc966f5823ccc30705f67f4c42f4766ca39a780c2b"},
		{"squeezenet/cpu/strict", "squeezenet", primitives.ModeCPU, false, false, false, "7ed67de0475b1f04d4b060adde81ae16aa2967d39875b2d8a9b7d814dc89ea1e"},
		{"squeezenet/cpu/robust", "squeezenet", primitives.ModeCPU, false, true, false, "2c1e31072246e8ee3d9b31d134215381566b8d04acc47a6fe5fbab8a2e0dcee2"},
		{"squeezenet/gpgpu/strict", "squeezenet", primitives.ModeGPGPU, false, false, false, "9c2785261419e479b452da385c6dbf95a2cdd36298e8f374e7855d4345976d89"},
		{"squeezenet/gpgpu/robust", "squeezenet", primitives.ModeGPGPU, false, true, false, "cb7a0b2e1aa67abb5add359e93744727b55819e6a157891a14b8068e371e68f5"},
		{"squeezenet/gpgpu/energy", "squeezenet", primitives.ModeGPGPU, true, false, false, "eef934d901bedb122b6b144d361c5d3d1d2ab87f2a7d8348d659d1b9be44e81e"},
		{"lenet5/gpgpu/faults7", "lenet5", primitives.ModeGPGPU, false, true, true, "1e33ddbb0f824c78f414a1f283005844f65b01de5f409e2885e6b678ef4c38a5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := models.MustBuild(tc.net)
			pl := platform.JetsonTX2Like()
			var src Source = NewSimSource(net, pl)
			if tc.energy {
				src = NewSimEnergySource(net, pl)
			}
			opts := Options{Mode: tc.mode, Samples: 10}
			if tc.robust {
				opts.Robust = DefaultRobust()
			}
			if tc.faults {
				src = NewFaultSource(src, DefaultFaults(7))
			}
			tab, _, err := RunContext(context.Background(), net, src, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tab.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("LUT sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
