package core

// Golden byte-equality harness for the compiled-plan episode engine.
//
// The testdata files were generated by the pre-searchplan implementation
// (the straightforward lut.Table walk); the tests assert that the
// current engine reproduces every assignment, every time, every curve
// point and every checkpoint byte *exactly* — bit-for-bit float
// equality, not tolerance comparison. This is the contract that lets
// the engine swap in under every caller (batch runner, durable
// checkpointing, CLI) without invalidating any recorded result. The
// pareto cases were recorded from the multi-objective search's own
// ε-greedy walk, before that search moved onto the scalarized table.
//
// Regenerate with:
//
//	QSDNN_UPDATE_GOLDEN=1 go test ./internal/core/ -run TestGolden
//
// but only ever from a commit whose outputs are themselves trusted.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/searchplan"
	"repro/internal/tensor"
)

// goldenChainTable is a fixed synthetic chain instance.
func goldenChainTable() *lut.Table {
	return randomChainTable(rand.New(rand.NewSource(42)), 8)
}

// goldenDAGTable is a fixed synthetic branchy instance: concat and
// residual-add layers give several multi-input layers, so the golden
// run exercises multi-edge incoming penalty sums, not just chains.
func goldenDAGTable() *lut.Table {
	b := nn.NewBuilder("golden-dag", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Input()
	c1 := b.Conv("c1", x, 4, 3, 1, 1)
	r1 := b.ReLU("r1", c1)
	br1 := b.Conv("br1", r1, 4, 3, 1, 1)
	br2 := b.BatchNorm("br2", r1)
	add := b.EltwiseAdd("add", br1, br2)
	cc := b.Concat("cc", add, r1)
	c2 := b.Conv("c2", cc, 4, 1, 1, 0)
	b.ReLU("r2", c2)
	net := b.MustBuild()

	rng := rand.New(rand.NewSource(99))
	tab := lut.New(net, primitives.ModeGPGPU)
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			tab.SetTime(i, p, 0.1+rng.Float64())
		}
	}
	for _, ed := range tab.Edges() {
		for _, fp := range tab.Candidates(ed.From) {
			for _, tp := range tab.Candidates(ed.To) {
				pen := 0.0
				if rng.Float64() < 0.5 {
					pen = rng.Float64() * 2
				}
				tab.SetPenalty(ed.From, ed.To, fp, tp, pen)
			}
		}
	}
	for _, p := range tab.Candidates(tab.OutputLayer()) {
		tab.SetOutputPenalty(p, rng.Float64()*0.5)
	}
	return tab
}

// goldenResult is the serialized form of a search outcome. All floats
// are recorded as IEEE-754 bit patterns (hex) so equality is exact;
// the plain Time field is informative only.
type goldenResult struct {
	Assignment []int  `json:"assignment"`
	TimeBits   string `json:"time_bits"`
	Time       float64
	Episodes   int `json:"episodes"`
	// Curve rows are [episode, epsilon_bits, time_bits, best_bits].
	Curve [][4]string `json:"curve,omitempty"`
	// SnapshotSHA256 holds one hash per boundary snapshot's marshaled
	// bytes (checkpointed cases only).
	SnapshotSHA256 []string `json:"snapshot_sha256,omitempty"`
	// FinalCheckpointSHA256 hashes the final checkpoint's marshaled
	// bytes (checkpointed cases only).
	FinalCheckpointSHA256 string `json:"final_checkpoint_sha256,omitempty"`
	// Multi holds one latency/energy search per lambda of the default
	// sweep (Pareto cases only).
	Multi []goldenMulti `json:"multi,omitempty"`
	// Front rows are [lambda_bits, seconds_bits, joules_bits] of the
	// non-dominated points (Pareto cases only).
	Front [][3]string `json:"front,omitempty"`
}

// goldenMulti is one scalarized search of a Pareto sweep.
type goldenMulti struct {
	LambdaBits  string `json:"lambda_bits"`
	Assignment  []int  `json:"assignment"`
	SecondsBits string `json:"seconds_bits"`
	JoulesBits  string `json:"joules_bits"`
}

func bits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

func encodeResult(r *Result) goldenResult {
	g := goldenResult{TimeBits: bits(r.Time), Time: r.Time, Episodes: r.Episodes}
	for _, id := range r.Assignment {
		g.Assignment = append(g.Assignment, int(id))
	}
	for _, pt := range r.Curve {
		g.Curve = append(g.Curve, [4]string{
			strconv.Itoa(pt.Episode), bits(pt.Epsilon), bits(pt.Time), bits(pt.Best),
		})
	}
	return g
}

func sha(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// goldenLambdas is ParetoFront's default sweep.
var goldenLambdas = []float64{0, 0.5, 1, 2, 5, 10, 50}

// encodePareto runs the default lambda sweep on a latency/energy
// table pair and records every search plus the resulting front.
func encodePareto(t *testing.T, tt, et *lut.Table, cfg Config) goldenResult {
	t.Helper()
	var g goldenResult
	for _, lam := range goldenLambdas {
		r, err := SearchMulti(tt, et, lam, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := goldenMulti{LambdaBits: bits(lam), SecondsBits: bits(r.Seconds), JoulesBits: bits(r.Joules)}
		for _, id := range r.Assignment {
			m.Assignment = append(m.Assignment, int(id))
		}
		g.Multi = append(g.Multi, m)
	}
	front, err := ParetoFront(tt, et, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range front {
		g.Front = append(g.Front, [3]string{bits(p.Lambda), bits(p.Seconds), bits(p.Joules)})
	}
	return g
}

// goldenCases enumerates every pinned scenario. Each case returns its
// encoded outcome; determinism comes from the fixed seeds.
func goldenCases(t *testing.T) map[string]func() goldenResult {
	t.Helper()
	chain := goldenChainTable()
	chainPlan := searchplan.Compile(chain)
	dag := goldenDAGTable()
	return map[string]func() goldenResult{
		"search_chain": func() goldenResult {
			return encodeResult(Search(chain, Config{Episodes: 300, Seed: 7}))
		},
		"search_dag": func() goldenResult {
			return encodeResult(Search(dag, Config{Episodes: 300, Seed: 11}))
		},
		"search_noshaping": func() goldenResult {
			return encodeResult(Search(chain, Config{Episodes: 200, Seed: 3, DisableShaping: true}))
		},
		"search_noreplay": func() goldenResult {
			return encodeResult(Search(chain, Config{Episodes: 200, Seed: 3, DisableReplay: true}))
		},
		"random_chain": func() goldenResult {
			return encodeResult(RandomSearchPlanned(searchplan.Compile(chain), 200, 5))
		},
		"random_dag": func() goldenResult {
			return encodeResult(RandomSearchPlanned(searchplan.Compile(dag), 200, 5))
		},
		"resumable_split": func() goldenResult {
			// A 300-episode budget run as 120 + 180, the schedule fixed
			// over the whole budget — the durable-search split protocol:
			// stop at the first boundary, then resume in one chunk.
			cfg := Config{Episodes: 300, Seed: 7}
			_, first := stopAt(t, chainPlan, cfg, 120, 1)
			var final []byte
			res, err := SearchCheckpointedPlanned(chainPlan, cfg, DurableOptions{
				Every: 300,
				From:  first,
				Save: func(s *Snapshot) (err error) {
					final, err = s.Checkpoint.Marshal()
					return err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			g := encodeResult(res)
			g.FinalCheckpointSHA256 = sha(final)
			return g
		},
		"pareto_chain": func() goldenResult {
			tt, et := energyTables(t, models.MustBuild("lenet5"), primitives.ModeCPU, 20)
			return encodePareto(t, tt, et, Config{Episodes: 600, Seed: 1})
		},
		"pareto_dag": func() goldenResult {
			tt, et := energyTables(t, models.MustBuild("squeezenet"), primitives.ModeGPGPU, 20)
			return encodePareto(t, tt, et, Config{Episodes: 600, Seed: 1})
		},
		"checkpointed_chain": func() goldenResult {
			var snaps []string
			var final []byte
			res, err := SearchCheckpointedPlanned(chainPlan, Config{Episodes: 300, Seed: 7}, DurableOptions{
				Every: 100,
				Save: func(s *Snapshot) error {
					data, err := s.Marshal()
					if err != nil {
						return err
					}
					snaps = append(snaps, sha(data))
					final, err = s.Checkpoint.Marshal()
					return err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			g := encodeResult(res)
			g.SnapshotSHA256 = snaps
			g.FinalCheckpointSHA256 = sha(final)
			return g
		},
	}
}

// TestGoldenByteIdentical pins the engine's outputs against the
// committed pre-searchplan results. It runs under -race in CI, so the
// equality also holds with the race detector's altered memory layout.
func TestGoldenByteIdentical(t *testing.T) {
	update := os.Getenv("QSDNN_UPDATE_GOLDEN") != ""
	for name, run := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			got := run()
			path := filepath.Join("testdata", "golden_"+name+".json")
			if update {
				data, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with QSDNN_UPDATE_GOLDEN=1 to generate): %v", err)
			}
			var want goldenResult
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s diverged from pre-PR golden", name)
				diffGolden(t, got, want)
			}
		})
	}
}

// diffGolden reports the first few concrete divergences to make a
// golden failure debuggable.
func diffGolden(t *testing.T, got, want goldenResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Errorf("assignment: got %v want %v", got.Assignment, want.Assignment)
	}
	if got.TimeBits != want.TimeBits {
		t.Errorf("time: got %s (%v) want %s", got.TimeBits, got.Time, want.TimeBits)
	}
	if got.Episodes != want.Episodes {
		t.Errorf("episodes: got %d want %d", got.Episodes, want.Episodes)
	}
	if len(got.Curve) != len(want.Curve) {
		t.Errorf("curve length: got %d want %d", len(got.Curve), len(want.Curve))
	} else {
		shown := 0
		for i := range got.Curve {
			if got.Curve[i] != want.Curve[i] && shown < 5 {
				t.Errorf("curve[%d]: got %v want %v", i, got.Curve[i], want.Curve[i])
				shown++
			}
		}
	}
	if !reflect.DeepEqual(got.SnapshotSHA256, want.SnapshotSHA256) {
		t.Errorf("snapshot hashes: got %v want %v", got.SnapshotSHA256, want.SnapshotSHA256)
	}
	if got.FinalCheckpointSHA256 != want.FinalCheckpointSHA256 {
		t.Errorf("final checkpoint hash: got %s want %s", got.FinalCheckpointSHA256, want.FinalCheckpointSHA256)
	}
	if !reflect.DeepEqual(got.Multi, want.Multi) {
		t.Errorf("lambda sweep: got %v want %v", got.Multi, want.Multi)
	}
	if !reflect.DeepEqual(got.Front, want.Front) {
		t.Errorf("front: got %v want %v", got.Front, want.Front)
	}
}
