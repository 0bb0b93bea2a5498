package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/serve"
)

// serve-mix settings: the daemon's CLI defaults with two workers and no
// plan store, two closed-loop clients, and 20 profiling samples per
// request.
const (
	serveClients  = 2
	serveSamples  = 20
	serveInflight = 2
	serveQueue    = 64
)

var serveModes = []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU}

// serveRequest is one POST /v1/optimize of the serve-mix traffic.
type serveRequest struct {
	network string
	mode    primitives.Mode
	seed    int64
	body    []byte
}

// key is the daemon's plan identity for the request.
func (r serveRequest) key() string { return fmt.Sprintf("%s/%s/%d", r.network, r.mode, r.seed) }

func (r serveRequest) family() string { return fmt.Sprintf("%s/%s", r.network, r.mode) }

// epochRequests returns epoch e of the serve-mix traffic. For every
// network and mode it asks for serveRanks agent seeds new to the epoch,
// the seed of popularity rank r serveTop/r^1.2 times (Zipf, s = 1.2),
// in a seeded random order. Every epoch therefore holds the same misses
// and hits of the same networks; the run seed changes only which agent
// seeds are asked for and in what order.
func epochRequests(sz sizes, seed int64, epoch int) []serveRequest {
	var reqs []serveRequest
	for ni, name := range sz.serveNets {
		for mi, mode := range serveModes {
			for r := 1; r <= sz.serveRanks; r++ {
				req := newRequest(name, mode, 1+mix(seed, int64(epoch), int64(ni), int64(mi), int64(r))%(1<<31), serveSamples, sz.episodes)
				for range max(1, int(math.Round(sz.serveTop/math.Pow(float64(r), 1.2)))) {
					reqs = append(reqs, req)
				}
			}
		}
	}
	rand.New(rand.NewSource(mix(seed, int64(epoch)))).Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	})
	return reqs
}

func newRequest(network string, mode primitives.Mode, seed int64, samples, episodes int) serveRequest {
	body, err := json.Marshal(serve.OptimizeRequest{
		Network: network, Mode: strings.ToLower(mode.String()), Seed: seed, Wait: true,
		Episodes: float64(episodes), Samples: float64(samples),
	})
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return serveRequest{network: network, mode: mode, seed: seed, body: body}
}

// reply is what a client saw for one request.
type reply struct {
	req     serveRequest
	ms      float64
	ok      bool
	cached  bool
	plan    [32]byte // SHA-256 of the served plan bytes
	speedup float64  // the plan's speedup_vs_bsl
}

// runServeMix drives an in-memory daemon over loopback HTTP with two
// closed-loop clients, epoch after epoch, until the run's time is up.
func runServeMix(c *runCtx) (*result, error) {
	res := &result{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	var srv *serve.Server
	var ts *httptest.Server
	setupS, stop, err := repeatSetup(c, func(parent int) (func(), error) {
		var err error
		srv, ts, err = startDaemon(c, parent, client)
		return func() { stopDaemon(srv, ts) }, err
	})
	if err != nil {
		return nil, err
	}
	defer stop()
	url := ts.URL + "/v1/optimize"
	var replies []reply
	epochs := 0
	var heldMB float64
	timed := c.tr.open(0, "timed")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for ; epochs == 0 || time.Since(start) < c.dur; epochs++ {
		reqs := epochRequests(c.sz, c.seed, epochs)
		var next atomic.Int64
		got := make([][]reply, serveClients)
		var wg sync.WaitGroup
		for cl := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
					got[cl] = append(got[cl], post(c, timed, client, url, reqs[i]))
				}
			}()
		}
		wg.Wait()
		for _, g := range got {
			replies = append(replies, g...)
		}
		if epochs == 0 {
			heldMB = heldHeapMB()
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	c.tr.close(timed, map[string]any{"epochs": epochs})
	st := srv.Status()

	// Oracles: one plan per key, byte for byte, and a sample of keys
	// equal to the plan the reference pipeline computes in-process.
	first := map[string]*reply{}  // the first reply for each key
	missOf := map[string]*reply{} // the first reply for each key not served from cache
	var all, hitMS, missMS []float64
	for i := range replies {
		r := &replies[i]
		res.attempted++
		if !r.ok {
			res.fail("%s: no plan served", r.req.key())
			continue
		}
		all = append(all, r.ms)
		if r.cached {
			hitMS = append(hitMS, r.ms)
		} else {
			missMS = append(missMS, r.ms)
			if missOf[r.req.key()] == nil {
				missOf[r.req.key()] = r
			}
		}
		if f, seen := first[r.req.key()]; !seen {
			first[r.req.key()] = r
		} else if f.plan != r.plan {
			res.fail("%s: served two different plans", r.req.key())
		}
	}
	if len(hitMS) == 0 || len(missMS) == 0 {
		return nil, fmt.Errorf("need both hits and misses, got %d and %d of %d replies", len(hitMS), len(missMS), len(replies))
	}
	epoch0 := distinct(epochRequests(c.sz, c.seed, 0))
	for _, rq := range sample(epoch0, c.sz.serveRefs, mix(c.seed, -1)) {
		var req serve.OptimizeRequest
		if err := json.Unmarshal(rq.body, &req); err != nil {
			return nil, err
		}
		sp := c.tr.open(0, "serve.ReferencePlan")
		_, want, err := serve.ReferencePlan(context.Background(), req, 0)
		c.tr.close(sp, map[string]any{"key": rq.key()})
		res.attempted++
		if err != nil {
			res.fail("%s: reference plan: %v", rq.key(), err)
		} else if f := first[rq.key()]; f == nil || f.plan != sha256.Sum256(want) {
			res.fail("%s: served plan differs from serve.ReferencePlan", rq.key())
		}
	}

	res.addE2E("setup_s", "s", setupS)
	res.addE2E("latency_ms", "ms", median(all))
	res.addE2E("throughput", "1/s", float64(len(replies))/wall.Seconds())
	res.addE2E("plan_x_bsl", "x", servedSpeedup(first))
	res.addE2E("heap_mb", "MB", heldMB)
	res.check("epochs", epochs)
	res.check("requests", len(replies))
	res.check("hits", len(hitMS))
	res.check("misses", len(missMS))
	res.check("hit_ms_p50", median(hitMS))
	res.check("miss_ms_p50", median(missMS))
	res.check("epoch0_digest", digest(epoch0, first))

	if c.tr.on() {
		p, v := tail(all)
		res.check("tail_percentile", p)
		res.addLayer("latency_ms_tail", "ms", v)
		var missed []serveRequest
		for _, r := range missOf {
			missed = append(missed, r.req)
		}
		if err := refSearchLayers(c, res, sample(missed, c.sz.refSearch, mix(c.seed, -2)), missOf); err != nil {
			return nil, err
		}
		addRuntimeLayer(res, float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc), float64(m1.NumGC-m0.NumGC), float64(len(replies)))
		addAbsentLayers(res, engineLayers)
		res.addLayer("serve.hit_pct", "%", 100*float64(st.PlanCacheHits)/float64(len(replies)))
		res.addLayer("serve.searches", "count", float64(st.Searches))
		res.addLayer("serve.coalesced", "count", float64(st.Coalesced))
		res.addLayer("serve.rejected", "count", float64(st.Rejected))
	}
	return res, nil
}

// warmup is the request that shows a new daemon ready: it profiles and
// searches end to end. Its single profiling sample keeps its table and
// plan apart from every key of the traffic.
var warmup = newRequest("lenet5", primitives.ModeCPU, 1, 1, 1000)

// startDaemon starts an in-memory daemon behind a loopback listener and
// waits until it has answered the warm-up request.
func startDaemon(c *runCtx, parent int, client *http.Client) (*serve.Server, *httptest.Server, error) {
	srv, err := serve.New(serve.Config{MaxInflight: serveInflight, QueueDepth: serveQueue})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	if r := post(c, parent, client, ts.URL+"/v1/optimize", warmup); !r.ok {
		stopDaemon(srv, ts)
		return nil, nil, fmt.Errorf("daemon did not answer its warm-up request")
	}
	return srv, ts, nil
}

func stopDaemon(srv *serve.Server, ts *httptest.Server) {
	ts.Close()
	srv.Drain(0)
}

// post sends one request and times it until the whole reply is read.
func post(c *runCtx, parent int, client *http.Client, url string, rq serveRequest) reply {
	r := reply{req: rq}
	sp := c.tr.open(parent, "POST /v1/optimize")
	t := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(rq.body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.ms = time.Since(t).Seconds() * 1e3
	var or serve.OptimizeResponse
	var plan struct {
		SpeedupVsBSL float64 `json:"speedup_vs_bsl"`
	}
	r.ok = err == nil && resp.StatusCode == http.StatusOK &&
		json.Unmarshal(data, &or) == nil && or.State == serve.StateDone &&
		json.Unmarshal(or.Plan, &plan) == nil && plan.SpeedupVsBSL > 0
	r.cached = or.Cached
	r.plan = sha256.Sum256(or.Plan)
	r.speedup = plan.SpeedupVsBSL
	c.tr.close(sp, map[string]any{"key": rq.key(), "cached": r.cached, "ok": r.ok})
	return r
}

// distinct returns each key of reqs once, in key order.
func distinct(reqs []serveRequest) []serveRequest {
	out := slices.Clone(reqs)
	slices.SortFunc(out, func(a, b serveRequest) int { return strings.Compare(a.key(), b.key()) })
	return slices.CompactFunc(out, func(a, b serveRequest) bool { return a.key() == b.key() })
}

// sample returns up to n of reqs, drawn with seed, after putting them in
// key order so the draw does not depend on how reqs was gathered.
func sample(reqs []serveRequest, n int, seed int64) []serveRequest {
	out := distinct(reqs)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(n, len(out))]
}

// servedSpeedup is the geometric mean, over networks and modes, of the
// geometric mean speedup over the best single library of the distinct
// plans served for each.
func servedSpeedup(first map[string]*reply) float64 {
	byFamily := map[string][]float64{}
	for _, r := range first {
		byFamily[r.req.family()] = append(byFamily[r.req.family()], r.speedup)
	}
	var fams []float64
	for _, xs := range byFamily {
		fams = append(fams, geomean(xs))
	}
	return geomean(fams)
}

// digest hashes the plans served for keys, in order.
func digest(keys []serveRequest, first map[string]*reply) string {
	h := sha256.New()
	for _, rq := range keys {
		h.Write([]byte(rq.key()))
		if r := first[rq.key()]; r != nil {
			h.Write(r.plan[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refSearchLayers profiles and searches the given missed keys with the
// benchmark's own calls, reporting the profile, searchplan and core
// per-layer metrics, and how many times longer the daemon took to
// answer each miss than the bare search.
func refSearchLayers(c *runCtx, res *result, missed []serveRequest, missOf map[string]*reply) error {
	board, _ := platform.Preset("tx2-like")
	byFamily := map[string]*refSearch{}
	var refs []*refSearch
	var profS time.Duration
	for _, rq := range missed {
		ref := byFamily[rq.family()]
		if ref == nil {
			net, err := models.Build(rq.network)
			if err != nil {
				return err
			}
			sp := c.tr.open(0, "profile.Run")
			t := time.Now()
			tab, err := profile.Run(net, profile.NewSimSource(net, board), profile.Options{Mode: rq.mode, Samples: serveSamples})
			profS += time.Since(t)
			c.tr.close(sp, map[string]any{"network": rq.network, "mode": rq.mode.String()})
			if err != nil {
				return err
			}
			ref = &refSearch{tab: tab}
			byFamily[rq.family()] = ref
			refs = append(refs, ref)
		}
		ref.seeds = append(ref.seeds, rq.seed)
	}
	res.addLayer("profile.run_s", "s", profS.Seconds())
	searchLayers(c, res, refs)
	var ratios []float64
	for _, rq := range missed {
		ref := byFamily[rq.family()]
		i := slices.Index(ref.seeds, rq.seed)
		ratios = append(ratios, missOf[rq.key()].ms/ref.ms[i])
	}
	res.addLayer("serve.miss_x_search", "x", median(ratios))
	return nil
}
