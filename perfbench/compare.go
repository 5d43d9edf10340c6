package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one run as --record appends it and --compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type metricSpec struct {
	unit   string
	higher bool
	bound  float64 // 0: no bound (per-layer)
}

func loadSpec(path string) (map[string]metricSpec, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := map[string]metricSpec{}
	var order []string
	for _, e := range s.EndToEnd {
		out[e.Name] = metricSpec{e.Unit, e.Better == "higher", e.Bound}
		order = append(order, e.Name)
	}
	for _, e := range s.PerLayer {
		out[e.Name] = metricSpec{e.Unit, e.Better == "higher", 0}
		order = append(order, e.Name)
	}
	return out, order, nil
}

// runs maps workload → metric → seed → value.
type runs map[string]map[string]map[uint64]float64

func loadRecords(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close() //pridlint:allow errdrop read-only; Scan surfaces read errors
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]map[uint64]float64{}
		}
		for name, m := range r.Result.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = map[uint64]float64{}
			}
			out[r.Workload][name][r.Seed] = m.Value
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

// compareRecords prints, per workload and metric, each side's median and
// quartiles and the verdict of verdict().
func compareRecords(w io.Writer, oldPath, newPath, specPath string) error {
	specs, order, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	old, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range old {
		if cur[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	var out strings.Builder
	fmt.Fprintf(&out, "%-15s %-28s %-6s %-32s %-32s %8s  %s\n",
		"workload", "metric", "unit", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "change", "verdict")
	for _, wl := range names {
		for _, name := range order {
			a, b := old[wl][name], cur[wl][name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ms := specs[name]
			oa, ob := values(a), values(b)
			qa, qb := quartiles(oa), quartiles(ob)
			change := math.NaN()
			if qa[1] != 0 { //pridlint:allow floateq exact zero guard before dividing
				change = (qb[1] - qa[1]) / math.Abs(qa[1]) * 100
			}
			fmt.Fprintf(&out, "%-15s %-28s %-6s %-32s %-32s %+7.2f%%  %s\n", wl, name, ms.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", qa[1], qa[0], qa[2], len(oa)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", qb[1], qb[0], qb[2], len(ob)),
				change, verdict(a, b, ms))
		}
	}
	if _, err := io.WriteString(w, out.String()); err != nil {
		return fmt.Errorf("writing comparison: %w", err)
	}
	return nil
}

// verdict applies the rule a change must meet (choosing-metrics §8):
//   - improved: the new side wins at least 9 in 10 seed-matched pairs,
//     ties counting for neither, and the medians differ by more than the
//     old side's interquartile distance;
//   - unresolved: the spread of either side exceeds the bound, unless
//     every new run beats every old run;
//   - worse: the new median is worse than the old by more than the bound;
//   - otherwise no worse within the bound.
//
// Per-layer metrics have no bound and get "improved" or "-".
func verdict(old, cur map[uint64]float64, ms metricSpec) string {
	better := func(x, y float64) bool { // x better than y
		if ms.higher {
			return x > y
		}
		return x < y
	}
	oa, ob := values(old), values(cur)
	qa, qb := quartiles(oa), quartiles(ob)
	wins, pairs := 0, 0
	for seed, v := range cur {
		o, ok := old[seed]
		if !ok {
			continue
		}
		pairs++
		if better(v, o) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0] && better(qb[1], qa[1]) {
		return "improved"
	}
	if ms.bound <= 0 {
		return "-"
	}
	allBetter := better(extreme(ob, !ms.higher), extreme(oa, ms.higher))
	spread := math.Max(relSpread(qa), relSpread(qb))
	if spread > ms.bound && !allBetter {
		return "unresolved"
	}
	limit := math.Abs(qa[1]) * ms.bound
	if (ms.higher && qb[1] < qa[1]-limit) || (!ms.higher && qb[1] > qa[1]+limit) {
		return "worse"
	}
	return "no worse within bound"
}

// extreme returns the largest value when max is set, else the smallest.
func extreme(v []float64, max bool) float64 {
	if max {
		return v[len(v)-1]
	}
	return v[0]
}

func relSpread(q [3]float64) float64 {
	if q[1] == 0 { //pridlint:allow floateq exact zero guard before dividing
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// values returns the map's values sorted ascending.
func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of the
// sorted values, by the same exclusive method as Python's
// statistics.quantiles(values, n=4).
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	if n == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	var q [3]float64
	for k := 1; k <= 3; k++ {
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		q[k-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile of sorted values with linear interpolation between ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
