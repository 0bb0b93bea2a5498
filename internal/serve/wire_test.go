package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/models"
)

// TestDecodeOptimizeRequest pins the request validator: every
// malformed body is a 400-class error naming the bad field, and valid
// bodies normalize to the documented defaults.
func TestDecodeOptimizeRequest(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		wantErr string // substring of the validation error; "" = valid
	}{
		{"minimal", `{"network":"lenet5"}`, ""},
		{"full", `{"network":"alexnet","platform":"nano-like","mode":"cpu","objective":"latency","episodes":200,"samples":3,"seed":7}`, ""},
		{"empty body", ``, "decoding request"},
		{"malformed json", `{"network":`, "decoding request"},
		{"wrong top-level type", `[1,2,3]`, "decoding request"},
		{"wrong field type", `{"network":"lenet5","episodes":"many"}`, "decoding request"},
		{"missing network", `{}`, "network is required"},
		{"blank network", `{"network":"   "}`, "network is required"},
		{"unknown network", `{"network":"resnet-9000"}`, "unknown network"},
		{"unknown platform", `{"network":"lenet5","platform":"tpu-like"}`, "unknown platform"},
		{"unknown mode", `{"network":"lenet5","mode":"fpga"}`, "unknown mode"},
		{"unknown objective", `{"network":"lenet5","objective":"energy"}`, "unknown objective"},
		{"negative episodes", `{"network":"lenet5","episodes":-5}`, "episodes must be positive"},
		{"fractional episodes", `{"network":"lenet5","episodes":10.5}`, "episodes must be an integer"},
		{"huge episodes", `{"network":"lenet5","episodes":1e99}`, "episodes exceeds the limit"},
		{"negative samples", `{"network":"lenet5","samples":-1}`, "samples must be positive"},
		{"fractional samples", `{"network":"lenet5","samples":0.5}`, "samples must be an integer"},
		{"huge samples", `{"network":"lenet5","samples":1e12}`, "samples exceeds the limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, spec, err := decodeOptimizeRequest(strings.NewReader(tc.body))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("decode(%s): unexpected error %v", tc.body, err)
				}
				if spec == nil {
					t.Fatal("valid request returned nil spec")
				}
				return
			}
			if err == nil {
				t.Fatalf("decode(%s): want error containing %q, got nil", tc.body, tc.wantErr)
			}
			if !isBadRequest(err) {
				t.Fatalf("decode(%s): error %v is not a bad-request error", tc.body, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("decode(%s): error %q does not contain %q", tc.body, err, tc.wantErr)
			}
		})
	}
}

// TestSpecDefaults pins the normalization: zero fields take the
// paper's defaults and the coalescing key reflects them.
func TestSpecDefaults(t *testing.T) {
	_, spec, err := decodeOptimizeRequest(strings.NewReader(`{"network":"lenet5"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Platform != "tx2-like" || spec.ModeName != "gpgpu" || spec.Objective != "latency" {
		t.Fatalf("defaults: got platform=%q mode=%q objective=%q", spec.Platform, spec.ModeName, spec.Objective)
	}
	if spec.Episodes != 1000 || spec.Samples != 50 || spec.Seed != 1 {
		t.Fatalf("defaults: got episodes=%d samples=%d seed=%d", spec.Episodes, spec.Samples, spec.Seed)
	}
	want := "lenet5|tx2-like|gpgpu|latency|e1000|s50|r1"
	if spec.key() != want {
		t.Fatalf("key: got %q, want %q", spec.key(), want)
	}
	if spec.lutKey() != "lenet5|tx2-like|gpgpu|s50" {
		t.Fatalf("lutKey: got %q", spec.lutKey())
	}
}

// TestBudgetNonFinite covers the NaN/Inf inputs JSON literals cannot
// express but the validator must still reject (a programmatic caller
// can construct them).
func TestBudgetNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := OptimizeRequest{Network: "lenet5", Episodes: v}
		if _, err := req.spec(); err == nil || !isBadRequest(err) {
			t.Fatalf("episodes=%v: want bad-request error, got %v", v, err)
		}
	}
}

// TestNetworkNameCheck pins the network check: every zoo model is
// accepted, and near misses get the 400 text that lists the zoo.
func TestNetworkNameCheck(t *testing.T) {
	for _, name := range models.All() {
		req := OptimizeRequest{Network: name}
		spec, err := req.spec()
		if err != nil {
			t.Fatalf("zoo model %q rejected: %v", name, err)
		}
		if spec.Network != name {
			t.Fatalf("zoo model %q normalised to %q", name, spec.Network)
		}
	}
	zoo := strings.Join(models.All(), ", ")
	for _, tc := range []struct{ name, want string }{
		{"LeNet5", `unknown network "LeNet5" (one of ` + zoo + `)`},
		{"lenet5/", `unknown network "lenet5/" (one of ` + zoo + `)`},
		{"le net5", `unknown network "le net5" (one of ` + zoo + `)`},
		{"mobilenet-v1-0.25", `unknown network "mobilenet-v1-0.25" (one of ` + zoo + `)`},
		{"", "network is required (one of " + zoo + ")"},
		{" \t", "network is required (one of " + zoo + ")"},
	} {
		req := OptimizeRequest{Network: tc.name}
		_, err := req.spec()
		if err == nil || !isBadRequest(err) || err.Error() != tc.want {
			t.Fatalf("network %q: got %v, want bad request %q", tc.name, err, tc.want)
		}
	}
}

// FuzzOptimizeRequest hammers the decode+validate path with arbitrary
// bytes: it must never panic, every rejection must be a bad-request
// error, and every accepted request must normalize to a fixed point
// (the normalized form re-validates to the same coalescing key — the
// property crash resume depends on when it re-admits stored requests).
func FuzzOptimizeRequest(f *testing.F) {
	seeds := []string{
		`{"network":"lenet5"}`,
		`{"network":"lenet5","platform":"nano-like","mode":"cpu","episodes":200,"samples":3,"seed":9,"wait":true}`,
		`{"network":"lenet5","episodes":1e99}`,
		`{"network":"lenet5","episodes":-1}`,
		`{"network":"lenet5","samples":0.5}`,
		`{"network":""}`,
		`{`,
		`[]`,
		`null`,
		`{"network":"lenet5","mode":"fpga"}`,
		`{"network":"LeNet5"}`,
		`{"network":"lenet5/"}`,
		`{"network":"le net5"}`,
		`{"network":" googlenet "}`,
		strings.Repeat(`{"network":"lenet5",`, 200),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, spec, err := decodeOptimizeRequest(bytes.NewReader(data))
		if err != nil {
			if !isBadRequest(err) {
				t.Fatalf("decode error %v is not a bad-request error", err)
			}
			return
		}
		if spec == nil {
			t.Fatal("valid request returned nil spec")
		}
		norm := spec.request()
		spec2, err := norm.spec()
		if err != nil {
			t.Fatalf("normalized request failed validation: %v", err)
		}
		if spec2.key() != spec.key() {
			t.Fatalf("normalization is not a fixed point: %q -> %q", spec.key(), spec2.key())
		}
	})
}
