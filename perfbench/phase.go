package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prid"
	"prid/internal/obs"
)

// opFunc runs op i on behalf of caller w and reports whether its answer
// was correct. Errors, sheds and oracle mismatches all report false.
type opFunc func(ctx context.Context, w, i int) bool

// windows is how many equal slices a timed phase is cut into. The
// throughput, latency and CPU metrics are each the median over the
// slices, so interference from outside the process (CPU steal,
// co-tenants) that covers fewer than half the slices does not move them.
const windows = 8

// window is the ops that ended in one slice of a timed phase.
type window struct {
	durS  float64
	cpuS  float64
	latMS []float64
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	attempted, failed int
	latMS             []float64
	windows           []window
	elapsedS          float64
	cpuS              float64
	allocBytes        uint64
	numGC             uint32
	counters          map[string]float64 // obs deltas, see obsDeltas
	nextOp            int
}

// runPhase drives op closed-loop from `clients` callers for d, numbering
// ops from firstOp. An op that starts before the deadline runs to its end
// and counts.
func runPhase(ctx context.Context, d time.Duration, firstOp int, op opFunc) phaseStats {
	var next atomic.Int64
	next.Store(int64(firstOp))
	type opSample struct{ endS, latMS float64 }
	samples := make([][]opSample, clients)
	failed := make([]int, clients)
	slice := d / windows

	before := takeSample()
	start := time.Now()
	deadline := start.Add(d)

	// CPU time is read at every slice boundary inside the phase.
	cpuMarks := make([]time.Duration, windows+1)
	cpuMarks[0] = before.cpu
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for k := 1; k < windows; k++ {
			select {
			case <-time.After(time.Until(start.Add(slice * time.Duration(k)))):
				cpuMarks[k] = processCPU()
			case <-stop:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				ok := op(ctx, w, i)
				end := time.Now()
				samples[w] = append(samples[w], opSample{end.Sub(start).Seconds(), float64(end.Sub(t0).Nanoseconds()) / 1e6})
				if !ok {
					failed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	sampler.Wait()
	after := takeSample()
	cpuMarks[windows] = after.cpu

	ps := phaseStats{elapsedS: elapsed.Seconds(), nextOp: int(next.Load()), windows: make([]window, windows)}
	for k := range ps.windows {
		ps.windows[k].durS = slice.Seconds()
		ps.windows[k].cpuS = (cpuMarks[k+1] - cpuMarks[k]).Seconds()
	}
	// The last slice also holds the ops that were running at the deadline.
	ps.windows[windows-1].durS = elapsed.Seconds() - slice.Seconds()*(windows-1)
	for w := range samples {
		for _, s := range samples[w] {
			k := int(s.endS / slice.Seconds())
			if k >= windows {
				k = windows - 1
			}
			ps.windows[k].latMS = append(ps.windows[k].latMS, s.latMS)
			ps.latMS = append(ps.latMS, s.latMS)
		}
		ps.failed += failed[w]
	}
	ps.attempted = len(ps.latMS)
	ps.cpuS = after.cpu.Seconds() - before.cpu.Seconds()
	ps.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	ps.numGC = after.mem.NumGC - before.mem.NumGC
	ps.counters = obsDeltas(before.obs, after.obs)
	return ps
}

// sample is the process state read around a timed phase.
type sample struct {
	cpu time.Duration
	mem runtime.MemStats
	obs obs.Snapshot
}

func takeSample() sample {
	var s sample
	s.cpu = processCPU()
	runtime.ReadMemStats(&s.mem)
	s.obs = obs.Default.Snapshot()
	return s
}

// processCPU is the user+system CPU time of the whole process: server,
// gateway and the in-process callers alike.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the peak resident set size of the process so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// obsDeltas reads the program's own counters as deltas over the phase.
// obs metrics are process-global: every node, the gateway and the
// gateway's own backend clients add to the same names.
func obsDeltas(a, b obs.Snapshot) map[string]float64 {
	d := map[string]float64{}
	for _, name := range []string{"serve.client.attempts", "serve.rejected", "gateway.failovers", "serve.batch.rows"} {
		d[name] = float64(b.Counters[name] - a.Counters[name])
	}
	for _, name := range []string{"serve.batch.size", "serve.batch.queue_seconds"} {
		d[name+".count"] = float64(b.Histograms[name].Count - a.Histograms[name].Count)
		d[name+".sum"] = b.Histograms[name].Sum - a.Histograms[name].Sum
	}
	return d
}

// endToEnd runs the untraced timed phase and reports the end-to-end
// metrics.
func endToEnd(ctx context.Context, in *instance, d time.Duration, setupS float64, log io.Writer) (result, error) {
	var pass *firstPass
	if in.wl.mode != modeAttack {
		pass = newFirstPass(len(in.ds.TestX))
	}
	ps := runPhase(ctx, d, 0, in.op(pass))

	// accuracy and Δ need one full pass over the test rows and the probe
	// set; a phase too short for that finishes the pass untimed.
	var accuracy, delta float64
	extraFailed := 0
	if in.wl.mode == modeAttack {
		for i := 0; !in.refs.complete() && i < len(in.probes); i++ {
			if !in.attackOp(i) {
				return result{}, fmt.Errorf("probe %d gave no valid reconstruction", i)
			}
		}
		delta = in.refs.meanDelta()
		var err error
		if accuracy, err = in.model.Accuracy(in.ds.TestX, in.ds.TestY); err != nil {
			return result{}, err
		}
	} else {
		for _, i := range pass.missingOps(in.rowsPerOp) {
			if !in.predictOp(ctx, i, pass) {
				extraFailed++
			}
		}
		accuracy = pass.accuracy(in.ds.TestY)
		var err error
		if delta, err = in.auditLeakage(); err != nil {
			return result{}, err
		}
	}

	logPhase(log, in, ps)
	wm := ps.sliceStats()
	m := map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {wm.opsPerS, "1/s"},
		"p50_ms":        {wm.p50, "ms"},
		"cpu_ms_per_op": {wm.cpuPerOp, "ms"},
		"ok_ratio":      {float64(ps.attempted-ps.failed) / float64(ps.attempted), "ratio"},
		"accuracy":      {accuracy, "ratio"},
		"leakage_delta": {delta, "ratio"},
		"max_rss_mb":    {maxRSSMB(), "MB"},
	}
	return result{
		Correct:   ps.failed == 0 && extraFailed == 0 && validDelta(delta) && accuracy > 0,
		Attempted: ps.attempted,
		Failed:    ps.failed,
		Metrics:   m,
	}, nil
}

// logPhase prints the whole-phase figures, with the tail and its sample
// count, and each slice's figures.
func logPhase(log io.Writer, in *instance, ps phaseStats) {
	sorted := append([]float64(nil), ps.latMS...)
	sort.Float64s(sorted)
	n := len(sorted)
	logf(log, "perfbench: %s seed %d: %d ops in %.2fs, %d failed; %.4g ops/s, p50 %.4g ms, p90 %.4g ms, p99 %.4g ms from %d samples (%d above p99), cpu %.4g ms/op\n",
		in.wl.name, in.seed, ps.attempted, ps.elapsedS, ps.failed, float64(n)/ps.elapsedS,
		quantile(sorted, 0.5), quantile(sorted, 0.9), quantile(sorted, 0.99), n, n-int(0.99*float64(n)),
		ps.cpuS*1000/float64(n))
	for k, w := range ps.windows {
		s := append([]float64(nil), w.latMS...)
		sort.Float64s(s)
		logf(log, "perfbench:   slice %d: %d ops, %.4g ops/s, p50 %.4g ms, p99 %.4g ms, cpu %.4g ms/op\n",
			k, len(s), float64(len(s))/w.durS, quantile(s, 0.5), quantile(s, 0.99), w.cpuS*1000/float64(len(s)))
	}
}

// sliceFigures are the throughput, latency and CPU metrics of a phase,
// each the median over its slices.
type sliceFigures struct {
	opsPerS, p50, cpuPerOp float64
}

func (ps phaseStats) sliceStats() sliceFigures {
	var rate, p50, cpu []float64
	for _, w := range ps.windows {
		if len(w.latMS) == 0 {
			continue
		}
		s := append([]float64(nil), w.latMS...)
		sort.Float64s(s)
		rate = append(rate, float64(len(s))/w.durS)
		p50 = append(p50, quantile(s, 0.50))
		cpu = append(cpu, w.cpuS*1000/float64(len(s)))
	}
	return sliceFigures{median(rate), median(p50), median(cpu)}
}

// auditLeakage is the mean Δ of the float model over the fixed probe set,
// with the probes split between the callers and summed in probe order.
// In binary mode it audits the float model the served form was binarized
// from: the attack API refuses the binary form, whose float class
// hypervectors the packing destroyed.
func (in *instance) auditLeakage() (float64, error) {
	attacker, err := prid.NewAttacker(in.model)
	if err != nil {
		return 0, fmt.Errorf("building attacker: %w", err)
	}
	deltas := make([]float64, len(in.probes))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(in.probes); k += clients {
				q := in.probe(k)
				rec, err := attacker.Reconstruct(q)
				if err == nil {
					deltas[k], err = prid.MeasureLeakage(in.ds.TrainX, q, rec.Data)
				}
				if err != nil {
					errs[w] = fmt.Errorf("auditing probe %d: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, d := range deltas {
		sum += d
	}
	return sum / float64(len(deltas)), nil
}
