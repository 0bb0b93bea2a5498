package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// benchServer starts a daemon for benchmarking.
func benchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
	})
	return srv, ts
}

// postOnce issues one wait:true request and checks the reply shape;
// it is goroutine-safe (no testing.B calls) for the coalesced case.
func postOnce(url, body string) (*OptimizeResponse, error) {
	resp, err := http.Post(url+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer func() {
		// The decoder stops before the reply's trailing newline; an
		// unread tail keeps the transport from reusing the connection,
		// so every request would pay a fresh dial.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var or OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		return nil, err
	}
	if or.State != StateDone || len(or.Plan) == 0 {
		return nil, fmt.Errorf("state %q, %d plan bytes", or.State, len(or.Plan))
	}
	return &or, nil
}

func benchPost(b *testing.B, url, body string) *OptimizeResponse {
	b.Helper()
	or, err := postOnce(url, body)
	if err != nil {
		b.Fatal(err)
	}
	return or
}

func benchBody(network string, seed int) string {
	return fmt.Sprintf(`{"network":%q,"mode":"cpu","episodes":300,"samples":3,"seed":%d,"wait":true}`, network, seed)
}

// BenchmarkServeOptimize measures the three request classes end to end
// over HTTP:
//
//	cold            unique request -> profile (first only) + full search
//	warm            repeated request -> served from the plan LRU
//	warm-googlenet  the same with a 21 KB plan (lenet5's is 1.5 KB),
//	                where the per-byte cost of a hit shows
//	coalesced       8 concurrent duplicates -> one search, 8 replies
func BenchmarkServeOptimize(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		_, ts := benchServer(b, Config{MaxInflight: 4, QueueDepth: 256})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPost(b, ts.URL, benchBody("lenet5", i+1)) // unique seed: never cached
		}
		b.ReportMetric(float64(b.Elapsed().Seconds())/float64(b.N)*1e3, "ms/req")
	})

	for _, warm := range []struct{ name, network string }{
		{"warm", "lenet5"},
		{"warm-googlenet", "googlenet"},
	} {
		b.Run(warm.name, func(b *testing.B) {
			_, ts := benchServer(b, Config{MaxInflight: 4, QueueDepth: 256})
			body := benchBody(warm.network, 1)
			benchPost(b, ts.URL, body) // populate the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				or := benchPost(b, ts.URL, body)
				if !or.Cached {
					b.Fatal("warm request missed the cache")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Seconds())/float64(b.N)*1e3, "ms/req")
		})
	}

	b.Run("coalesced", func(b *testing.B) {
		const dups = 8
		_, ts := benchServer(b, Config{MaxInflight: 4, QueueDepth: 256})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := benchBody("lenet5", 1_000_000+i) // fresh seed per round
			var wg sync.WaitGroup
			errs := make(chan error, dups)
			for d := 0; d < dups; d++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := postOnce(ts.URL, body); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Seconds())/float64(b.N)*1e3, "ms/round")
	})
}
