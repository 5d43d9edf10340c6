package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"prid/internal/dataset"
)

// testSize keeps each set-up well under a second.
var testSize = sizes{train: 200, test: 100, dim: 1024, probes: 6, batchRows: 64, minSetups: 1, maxSetups: 1}

func setupTest(t *testing.T, name string, seed uint64) *instance {
	t.Helper()
	in, _, _, err := setupOnce(workloads[name], seed, testSize)
	if err != nil {
		t.Fatalf("setting up %s: %v", name, err)
	}
	t.Cleanup(in.close)
	if err := in.prepareOracle(); err != nil {
		t.Fatal(err)
	}
	return in
}

// opStream lists the rows of the first two passes of ops.
func opStream(in *instance) [][][]float64 {
	var out [][][]float64
	for i := 0; i < 2*len(in.ds.TestX)/in.rowsPerOp+1; i++ {
		rows, _ := in.rowsFor(i)
		out = append(out, rows)
	}
	return out
}

func TestSameSeedSameInputsAndAnswers(t *testing.T) {
	for _, name := range []string{"predict-float", "gateway-batch", "attack"} {
		t.Run(name, func(t *testing.T) {
			a, b, c := setupTest(t, name, 5), setupTest(t, name, 5), setupTest(t, name, 6)
			if !reflect.DeepEqual(opStream(a), opStream(b)) || !reflect.DeepEqual(a.probes, b.probes) {
				t.Fatal("same seed gave different op streams")
			}
			if reflect.DeepEqual(opStream(a), opStream(c)) || reflect.DeepEqual(a.ds.TrainX, c.ds.TrainX) {
				t.Fatal("different seeds gave the same inputs")
			}
			ra, rb := runE2E(t, a), runE2E(t, b)
			for _, m := range []string{"accuracy", "leakage_delta"} {
				va, vb := ra.Metrics[m].Value, rb.Metrics[m].Value
				if math.Float64bits(va) != math.Float64bits(vb) {
					t.Errorf("%s: %v then %v with the same seed", m, va, vb)
				}
				if va <= 0 || va > 1 {
					t.Errorf("%s = %v, want in (0, 1]", m, va)
				}
			}
		})
	}
}

func runE2E(t *testing.T, in *instance) result {
	t.Helper()
	res, err := endToEnd(context.Background(), in, 300*time.Millisecond, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Metrics["ok_ratio"].Value != 1 {
		t.Fatalf("run not correct: %+v", res)
	}
	checkMetricSet(t, res, "end_to_end")
	return res
}

// checkMetricSet requires the result to carry exactly the metrics
// BENCHMARK.json lists in section, each with its listed unit.
func checkMetricSet(t *testing.T, res result, section string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(res.Metrics) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d in %s", len(res.Metrics), len(listed), section)
	}
	for _, m := range listed {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

func readSpans(t *testing.T, path string) []opTrace {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []opTrace
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var op opTrace
		if err := dec.Decode(&op); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		t.Fatal("no traced ops written")
	}
	return ops
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "attack", "--seed", "0", "--seconds", "1", "--trace", "0"},
		{"--workload", "attack", "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--workload", "attack", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "attack", "--seed", "x", "--seconds", "1", "--trace", "0"},
		{"--workload", "attack", "--seed", "1", "--seconds", "1", "--trace", "0", "extra"},
		{"--no-such-flag"},
		{"--compare", "only-one.jsonl"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestOracleCountsFailures serves wrong answers, sheds and errors and
// checks each op counts as failed, while the right answer passes.
func TestOracleCountsFailures(t *testing.T) {
	rows := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	in := &instance{
		name:      "m",
		rowsPerOp: 1,
		ds:        &dataset.Dataset{TestX: rows, TestY: []int{0, 1}},
		stream:    append(append([][]float64{}, rows...), rows...),
		expected:  []int{0, 1},
	}
	answer := func(w http.ResponseWriter, class int) {
		_ = json.NewEncoder(w).Encode(map[string][]int{"predictions": {class}})
	}
	cases := map[string]struct {
		handler http.HandlerFunc
		ok      bool
	}{
		"right": {func(w http.ResponseWriter, r *http.Request) { answer(w, 0) }, true},
		"wrong": {func(w http.ResponseWriter, r *http.Request) { answer(w, 1) }, false},
		"shed":  {func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusServiceUnavailable) }, false},
		"error": {func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) }, false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			in.root = newClient(in, srv.URL)
			pass := newFirstPass(len(rows))
			if got := in.predictOp(context.Background(), 0, pass); got != tc.ok {
				t.Fatalf("predictOp = %v, want %v", got, tc.ok)
			}
			// A failed op scores as a miss in the accuracy pass.
			if (pass.slots[0] == 0) != tc.ok {
				t.Fatalf("first-pass slot = %d after ok=%v", pass.slots[0], tc.ok)
			}
		})
	}
}

// TestTracedSelfTimes checks the traced replay of every workload: each
// rung's self time is non-negative to within three standard errors of
// its per-op mean (rungs replayed one after another differ by timing
// noise where a layer adds nearly nothing), and the self times sum to
// the root rung.
func TestTracedSelfTimes(t *testing.T) {
	wantRoot := map[string]string{
		"predict-float":  "client.predict",
		"predict-binary": "client.predict",
		"gateway-batch":  "gateway.predict",
		"attack":         "attack.probe",
	}
	for name, root := range wantRoot {
		t.Run(name, func(t *testing.T) {
			in := setupTest(t, name, 3)
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := traced(context.Background(), in, 1400*time.Millisecond, map[string]float64{}, path, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run not correct: %d of %d ops failed", res.Failed, res.Attempted)
			}
			checkMetricSet(t, res, "per_layer")
			ops := readSpans(t, path)
			rungs, gotRoot := summarize(ops)
			if gotRoot != root {
				t.Fatalf("root rung %q, want %q", gotRoot, root)
			}
			var sum float64
			for rung, r := range rungs {
				sum += r.selfMS
				if r.selfMS < -3*r.selfSE {
					t.Errorf("%s self time %.4f ms below zero by more than 3 standard errors (%.4f)", rung, r.selfMS, r.selfSE)
				}
			}
			if d := math.Abs(sum - rungs[root].durMS); d > 1e-9*rungs[root].durMS {
				t.Errorf("self times sum to %.6f ms, root rung is %.6f ms", sum, rungs[root].durMS)
			}
			for _, op := range ops {
				for _, s := range op.Spans {
					if s.EndNS < s.StartNS || (s.Parent >= 0 && s.Parent >= len(op.Spans)) {
						t.Fatalf("malformed span %+v in op %d", s, op.Op)
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartiles(v); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}
