// Package loadtest drives a running qsdnn serve daemon with a fixed
// pool of concurrent clients and reports client-observed latency
// percentiles and throughput. Its tests are the >= 64-client
// zero-error, faulty-deadline and drift acceptance gates; the serving
// latency record is bench/qsbench's serve-mix workload.
package loadtest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Options configures one load run.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent clients (default 64).
	Clients int
	// Requests is the total request count (default 4 * Clients).
	Requests int
	// Bodies are the POST /v1/optimize payloads, assigned round-robin.
	Bodies [][]byte
	// Timeout bounds one request (default 2 minutes).
	Timeout time.Duration
}

// Class aggregates the latency distribution of one response class
// (e.g. degraded brownout answers, budget-exhausted best-effort plans).
type Class struct {
	Count int
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func classOf(ds []time.Duration) Class {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	c := Class{Count: len(ds)}
	if len(ds) == 0 {
		return c
	}
	c.P50 = stats.NearestRank(ds, 50)
	c.P95 = stats.NearestRank(ds, 95)
	c.P99 = stats.NearestRank(ds, 99)
	c.Max = ds[len(ds)-1]
	return c
}

// Result is the aggregate outcome of a load run.
type Result struct {
	Requests   int
	Clients    int
	Errors     int
	ByStatus   map[int]int
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	Max        time.Duration
	Elapsed    time.Duration
	Throughput float64
	// Degraded aggregates brownout substitutions ("degraded":true
	// responses); BudgetExhausted aggregates best-effort plans returned
	// at the deadline ("budget_exhausted":true); Revalidating aggregates
	// quarantined-but-served plans awaiting a self-healing re-search
	// ("revalidating":true). All are zero-count on a healthy run.
	Degraded        Class
	BudgetExhausted Class
	Revalidating    Class
}

// String renders the run for humans.
func (r *Result) String() string {
	return fmt.Sprintf("%d requests / %d clients: %d errors, p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms, %.1f req/s",
		r.Requests, r.Clients, r.Errors,
		float64(r.P50)/1e6, float64(r.P95)/1e6, float64(r.P99)/1e6, float64(r.Max)/1e6,
		r.Throughput)
}

// Run fires opt.Requests POSTs at opt.BaseURL from opt.Clients
// concurrent workers. A request counts as an error if it fails at the
// transport layer, returns a status outside {200, 202, 429, 503}, or
// returns 429/503 without a Retry-After header — 429 is the daemon's
// documented backpressure answer and 503 its honest overload/degraded
// answer, but both are only acceptable when they tell the client when
// to come back. The caller can decide from ByStatus whether rejections
// are acceptable for the run.
func Run(ctx context.Context, opt Options) (*Result, error) {
	if opt.BaseURL == "" {
		return nil, fmt.Errorf("loadtest: BaseURL is required")
	}
	if len(opt.Bodies) == 0 {
		return nil, fmt.Errorf("loadtest: at least one request body is required")
	}
	if opt.Clients <= 0 {
		opt.Clients = 64
	}
	if opt.Requests <= 0 {
		opt.Requests = 4 * opt.Clients
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Minute
	}
	client := &http.Client{Timeout: opt.Timeout}
	url := opt.BaseURL + "/v1/optimize"

	var mu sync.Mutex
	durations := make([]time.Duration, 0, opt.Requests)
	var degradedD, budgetD, revalD []time.Duration
	byStatus := map[int]int{}
	errorsN := 0

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opt.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				body := opt.Bodies[i%len(opt.Bodies)]
				t0 := time.Now()
				r, err := post(ctx, client, url, body)
				d := time.Since(t0)
				bad := err != nil
				switch r.status {
				case http.StatusOK, http.StatusAccepted:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Backpressure and degradation are honest only with
					// a Retry-After; a bare 429/503 strands the client.
					if !r.retryAfter {
						bad = true
					}
				default:
					bad = true
				}
				mu.Lock()
				durations = append(durations, d)
				byStatus[r.status]++
				if r.degraded {
					degradedD = append(degradedD, d)
				}
				if r.budget {
					budgetD = append(budgetD, d)
				}
				if r.revalidating {
					revalD = append(revalD, d)
				}
				if bad {
					errorsN++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < opt.Requests; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	res := &Result{
		Requests: len(durations),
		Clients:  opt.Clients,
		Errors:   errorsN,
		ByStatus: byStatus,
		P50:      stats.NearestRank(durations, 50),
		P95:      stats.NearestRank(durations, 95),
		P99:      stats.NearestRank(durations, 99),
		Elapsed:  elapsed,
	}
	if len(durations) > 0 {
		res.Max = durations[len(durations)-1]
	}
	if elapsed > 0 {
		res.Throughput = float64(len(durations)) / elapsed.Seconds()
	}
	res.Degraded = classOf(degradedD)
	res.BudgetExhausted = classOf(budgetD)
	res.Revalidating = classOf(revalD)
	return res, nil
}

// reply is one request's client-observed outcome: the status (0 on
// transport failure), whether a Retry-After header came back, and
// whether the body flagged the plan as degraded or budget-exhausted.
// The flags are detected by substring, not a full unmarshal — the
// fields are only ever emitted as literal true.
type reply struct {
	status       int
	retryAfter   bool
	degraded     bool
	budget       bool
	revalidating bool
}

// post issues one request and classifies the response.
func post(ctx context.Context, client *http.Client, url string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	r := reply{
		status:       resp.StatusCode,
		retryAfter:   resp.Header.Get("Retry-After") != "",
		degraded:     bytes.Contains(payload, []byte(`"degraded":true`)),
		budget:       bytes.Contains(payload, []byte(`"budget_exhausted":true`)),
		revalidating: bytes.Contains(payload, []byte(`"revalidating":true`)),
	}
	return r, err
}
