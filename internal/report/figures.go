package report

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/searchplan"
	"repro/internal/stats"
)

// Fig4 runs the paper's Fig. 4 experiment: a single QS-DNN search
// (default MobileNet-v1, GPGPU, 1000 episodes — 500 exploration, then
// ε −0.1 every 50) returning the per-episode learning curve.
func Fig4(network string, pl *platform.Platform, opts Options) ([]core.EpisodePoint, error) {
	opts = opts.withDefaults()
	net, err := models.Build(network)
	if err != nil {
		return nil, err
	}
	tab, err := profiledTable(net, pl, primitives.ModeGPGPU, opts)
	if err != nil {
		return nil, err
	}
	res := core.Search(tab, core.Config{Episodes: opts.Episodes, Seed: opts.Seed})
	return res.Curve, nil
}

// FormatCurveCSV renders a learning curve as CSV (episode, epsilon,
// episode time in ms, best-so-far in ms).
func FormatCurveCSV(curve []core.EpisodePoint) string {
	var b strings.Builder
	b.WriteString("episode,epsilon,time_ms,best_ms\n")
	for _, pt := range curve {
		fmt.Fprintf(&b, "%d,%.2f,%.4f,%.4f\n", pt.Episode, pt.Epsilon, pt.Time*1e3, pt.Best*1e3)
	}
	return b.String()
}

// Fig5Point is one budget point of the RL-vs-RS comparison: the mean
// and standard deviation of the best-found inference time over
// Repeats complete searches with that exact episode budget.
type Fig5Point struct {
	// Episodes is the search budget of this point.
	Episodes int
	// RLMean / RLStd summarize the RL searches (seconds).
	RLMean, RLStd float64
	// RSMean / RSStd summarize the Random Searches (seconds).
	RSMean, RSStd float64
}

// Fig5Budgets are the episode budgets swept in the reproduction.
var Fig5Budgets = []int{25, 50, 100, 150, 200, 250, 350, 500, 700, 1000}

// Fig5 runs the paper's Fig. 5 experiment on one network: for each
// budget, `repeats` complete RL searches (with the ε schedule scaled
// to the budget, as a real short search would use) and as many Random
// Searches, reporting mean and spread of the best-found time.
func Fig5(network string, pl *platform.Platform, repeats int, opts Options) ([]Fig5Point, error) {
	opts = opts.withDefaults()
	if repeats <= 0 {
		repeats = 5
	}
	net, err := models.Build(network)
	if err != nil {
		return nil, err
	}
	tab, err := profiledTable(net, pl, primitives.ModeGPGPU, opts)
	if err != nil {
		return nil, err
	}
	plan := searchplan.Compile(tab)
	points := make([]Fig5Point, 0, len(Fig5Budgets))
	for _, budget := range Fig5Budgets {
		if budget > opts.Episodes {
			break
		}
		pt := Fig5Point{Episodes: budget}
		rl := make([]float64, repeats)
		rs := make([]float64, repeats)
		for r := 0; r < repeats; r++ {
			seed := opts.Seed + int64(r)*1000 + int64(budget)
			rl[r] = core.SearchPlanned(plan, core.Config{Episodes: budget, Seed: seed}).Time
			rs[r] = core.RandomSearchPlanned(plan, budget, seed).Time
		}
		pt.RLMean, pt.RSMean = stats.Mean(rl), stats.Mean(rs)
		pt.RLStd, pt.RSStd = stdDev(rl, pt.RLMean), stdDev(rs, pt.RSMean)
		points = append(points, pt)
	}
	return points, nil
}

// stdDev returns the population standard deviation of xs about mu.
func stdDev(xs []float64, mu float64) float64 {
	var ss float64
	for _, x := range xs {
		ss += (x - mu) * (x - mu)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// FormatFig5CSV renders the sweep as CSV (milliseconds).
func FormatFig5CSV(points []Fig5Point) string {
	var b strings.Builder
	b.WriteString("episodes,rl_mean_ms,rl_std_ms,rs_mean_ms,rs_std_ms,rs_over_rl\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%d,%.4f,%.4f,%.4f,%.4f,%.2f\n",
			p.Episodes, p.RLMean*1e3, p.RLStd*1e3, p.RSMean*1e3, p.RSStd*1e3, p.RSMean/p.RLMean)
	}
	return b.String()
}

// Fig1Demo reproduces the paper's Fig. 1 story on a real profiled
// network: it compares the per-layer-greedy path (fastest primitive
// per layer, penalties ignored) against the QS-DNN path on the same
// table, returning (greedy, rl) total seconds. On heterogeneous
// tables greedy routinely walks into transfer penalties.
func Fig1Demo(network string, pl *platform.Platform, opts Options) (greedy, rl float64, err error) {
	opts = opts.withDefaults()
	net, err := models.Build(network)
	if err != nil {
		return 0, 0, err
	}
	tab, err := profiledTable(net, pl, primitives.ModeGPGPU, opts)
	if err != nil {
		return 0, 0, err
	}
	plan := searchplan.Compile(tab)
	g := core.GreedyPlanned(plan)
	r := core.SearchPlanned(plan, core.Config{Episodes: opts.Episodes, Seed: opts.Seed})
	return g.Time, r.Time, nil
}

// ASCIIPlot renders a crude down-sampled curve of best-so-far times —
// enough to eyeball Fig. 4 in a terminal.
func ASCIIPlot(curve []core.EpisodePoint, width, height int) string {
	if len(curve) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, pt := range curve {
		if pt.Best < minV {
			minV = pt.Best
		}
		if pt.Best > maxV {
			maxV = pt.Best
		}
	}
	if maxV == minV {
		maxV = minV + 1e-12
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c := 0; c < width; c++ {
		idx := c * (len(curve) - 1) / maxInt(width-1, 1)
		v := curve[idx].Best
		r := int(float64(height-1) * (maxV - v) / (maxV - minV))
		grid[r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "best inference time, %.3fms (top) .. %.3fms (bottom)\n", maxV*1e3, minV*1e3)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "> episodes\n")
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
