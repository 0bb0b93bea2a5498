package plan

// Streaming analysis of deployment plans. The paper optimizes
// single-image latency (batch 1, the edge-inference setting); Analyze
// answers the follow-on deployment question: what throughput could the
// chosen mapping sustain when images stream in and the CPU, the GPU and
// the interconnect can each work on a *different* image concurrently
// (double buffering)? The steady-state rate is bounded by the busiest
// resource.

import (
	"fmt"
	"sort"
)

// resourceOf maps a plan step to the hardware resource it occupies.
func resourceOf(s Step) string {
	switch s.Kind {
	case Compat:
		if s.Transfer {
			return "interconnect"
		}
		return s.Proc
	case Return:
		if s.Transfer {
			return "interconnect"
		}
		return "CPU"
	default:
		return s.Proc
	}
}

// Analysis summarizes a plan's streaming behavior.
type Analysis struct {
	// LatencySeconds is the single-image end-to-end latency (the sum
	// of all steps — what the paper's search minimizes).
	LatencySeconds float64
	// PerResourceSeconds is each resource's busy time per image.
	PerResourceSeconds map[string]float64
	// Bottleneck is the busiest resource.
	Bottleneck string
	// ThroughputUpperBound is the best possible pipelined rate,
	// 1 / busy(bottleneck). A mapping that ping-pongs between
	// processors (re-entrant flow) generally cannot reach it: it is a
	// bound, not a rate any schedule is shown to achieve.
	ThroughputUpperBound float64
	// MaxPipelineSpeedup is ThroughputUpperBound x latency: 1.0 means
	// no overlap is possible (everything on one resource).
	MaxPipelineSpeedup float64
}

// Analyze computes the steady-state analysis of a plan.
func Analyze(p *Plan) *Analysis {
	a := &Analysis{PerResourceSeconds: map[string]float64{}}
	for _, s := range p.Steps {
		a.LatencySeconds += s.Seconds
		a.PerResourceSeconds[resourceOf(s)] += s.Seconds
	}
	for _, res := range a.resources() {
		if busy := a.PerResourceSeconds[res]; busy > a.PerResourceSeconds[a.Bottleneck] || a.Bottleneck == "" {
			a.Bottleneck = res
		}
	}
	if busy := a.PerResourceSeconds[a.Bottleneck]; busy > 0 {
		a.ThroughputUpperBound = 1 / busy
		a.MaxPipelineSpeedup = a.LatencySeconds / busy
	}
	return a
}

// resources returns the busy resources' names in sorted order, so the
// bottleneck tie-break and the rendering never depend on map order.
func (a *Analysis) resources() []string {
	names := make([]string, 0, len(a.PerResourceSeconds))
	for res := range a.PerResourceSeconds {
		names = append(names, res)
	}
	sort.Strings(names)
	return names
}

// Render formats the analysis for terminal output, one line per
// resource in name order.
func (a *Analysis) Render() string {
	out := fmt.Sprintf("latency %.3f ms, pipelined rate <= %.1f img/s (max speedup %.2fx)\n",
		a.LatencySeconds*1e3, a.ThroughputUpperBound, a.MaxPipelineSpeedup)
	for _, res := range a.resources() {
		busy := a.PerResourceSeconds[res]
		mark := ""
		if res == a.Bottleneck {
			mark = "  <- bottleneck"
		}
		out += fmt.Sprintf("  %-13s busy %8.3f ms/image%s\n", res, busy*1e3, mark)
	}
	return out
}
