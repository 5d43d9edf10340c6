package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"prid"
	"prid/internal/attack"
	"prid/internal/decode"
	"prid/internal/hdc"
)

// The traced run replays each op down a ladder of public entry points,
// one rung per layer, recording one span per rung:
//
//	predict-*:      client.predict → engine.predict → prid.predict_batch → hdc.encode, hdc.classify
//	gateway-batch:  gateway.predict → client.predict → (as predict-*)
//	attack:         attack.probe → attack.reconstruct → attack.feature_round → hdc.encode, hdc.classify
//	                                                  → attack.dimension_round → decode.decode
//	                             → metrics.leakage
//
// A rung runs the whole op again one layer lower, after its parent
// returns, except where the parent is only a sequence of calls the
// benchmark makes itself (attack.probe, attack.reconstruct): those spans
// enclose their children. A span's self time is its duration minus its
// children's durations, so the self times of an op sum to its root span.

// span is one rung of one op. Times are nanoseconds since the traced
// phase began; parent is an index into the op's spans, -1 for the root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rows    int    `json:"rows"`
}

// opTrace is one op's spans plus its computed request body size.
type opTrace struct {
	Op           int    `json:"op"`
	Spans        []span `json:"spans"`
	RequestBytes int    `json:"request_bytes,omitempty"`
	epoch        time.Time
}

func (t *opTrace) begin(name string, parent, rows int) int {
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, Rows: rows, StartNS: int64(time.Since(t.epoch))})
	return len(t.Spans) - 1
}

func (t *opTrace) end(s int) { t.Spans[s].EndNS = int64(time.Since(t.epoch)) }

// ladder holds the hdc-level objects the lower rungs call. The facade
// keeps them unexported, so they come from round-tripping the trained
// model through its serialized bytes.
type ladder struct {
	basis   *hdc.Basis
	model   *hdc.Model
	packed  *hdc.PackedBasis
	binary  *hdc.BinaryModel
	decoder *decode.LeastSquares
	recon   *attack.Reconstructor
}

func (in *instance) prepareLadder() error {
	l := &ladder{}
	var buf bytes.Buffer
	if in.bin != nil {
		if err := in.bin.Save(&buf); err != nil {
			return err
		}
		var err error
		if l.packed, err = hdc.ReadPackedBasis(&buf); err != nil {
			return fmt.Errorf("reading packed basis: %w", err)
		}
		if l.binary, err = hdc.ReadBinaryModel(&buf); err != nil {
			return fmt.Errorf("reading binary model: %w", err)
		}
		in.ladder = l
		return nil
	}
	if err := in.model.Save(&buf); err != nil {
		return err
	}
	var err error
	if l.basis, err = hdc.ReadBasis(&buf); err != nil {
		return fmt.Errorf("reading basis: %w", err)
	}
	if l.model, err = hdc.ReadModel(&buf); err != nil {
		return fmt.Errorf("reading model: %w", err)
	}
	if in.wl.mode == modeAttack {
		if l.decoder, err = decode.NewLeastSquares(l.basis, 0); err != nil {
			return fmt.Errorf("building decoder: %w", err)
		}
		l.recon = attack.NewReconstructor(l.basis, l.model, l.decoder)
	}
	in.ladder = l
	return nil
}

// predictLadder replays predict op i down the serving rungs and checks
// every rung's answer against the oracle.
func (in *instance) predictLadder(ctx context.Context, i int, t *opTrace) bool {
	rows, start := in.rowsFor(i)
	n := len(rows)
	body, err := json.Marshal(map[string]any{"model": in.name, "inputs": rows})
	if err != nil {
		return false
	}
	t.RequestBytes = len(body)
	ok := true
	check := func(preds []int, err error) { ok = ok && err == nil && in.matchesOracle(preds, start) }

	parent := -1
	cli := in.root
	if in.gw != nil {
		g := t.begin("gateway.predict", -1, n)
		preds, err := in.root.Predict(ctx, in.name, rows)
		t.end(g)
		check(preds, err)
		parent, cli = g, in.direct
	}
	c := t.begin("client.predict", parent, n)
	preds, err := cli.Predict(ctx, in.name, rows)
	t.end(c)
	check(preds, err)

	e := t.begin("engine.predict", c, n)
	preds, err = in.owner.Engine().Predict(ctx, in.name, rows, "inputs")
	t.end(e)
	check(preds, err)

	f := t.begin("prid.predict_batch", e, n)
	preds, err = in.facadePredict(rows)
	t.end(f)
	check(preds, err)

	// The rungs above all read the served copy of the basis, which every
	// request keeps in cache; one untimed encode brings the replay's own
	// copy there too, so the timed encode is not charged a cold start the
	// served path never pays.
	l := in.ladder
	preds = make([]int, n)
	if l.binary != nil {
		dists, q := make([]int, l.binary.NumClasses()), make([]uint64, l.binary.Words())
		hdc.EncodeAllParallel(l.packed, rows, 0)
		s := t.begin("hdc.encode", f, n)
		hs := hdc.EncodeAllParallel(l.packed, rows, 0)
		t.end(s)
		s = t.begin("hdc.classify", f, n)
		for j, h := range hs {
			preds[j] = l.binary.ClassifyInto(dists, q, h)
		}
		t.end(s)
	} else {
		hdc.EncodeAllParallel(l.basis, rows, 0)
		s := t.begin("hdc.encode", f, n)
		hs := hdc.EncodeAllParallel(l.basis, rows, 0)
		t.end(s)
		s = t.begin("hdc.classify", f, n)
		for j, h := range hs {
			preds[j], _ = l.model.Classify(h)
		}
		t.end(s)
	}
	check(preds, nil)
	return ok
}

// attackLadder replays audit probe i as the one-round passes the
// facade's Reconstruct runs, then replays the encode and classify each
// feature round opens with and the decode each dimension round ends with.
// The replayed reconstruction must match the first-pass one bit for bit.
func (in *instance) attackLadder(i int, t *opTrace) bool {
	l := in.ladder
	q := in.probe(i)
	one := attack.DefaultConfig()
	one.Iterations = 1
	type round struct {
		span  int
		input []float64
	}
	var feature, dimension []round

	root := t.begin("attack.probe", -1, 1)
	r := t.begin("attack.reconstruct", root, 1)
	cur := q
	for it := 0; it < attackIterations; it++ {
		var res attack.Result
		if it%2 == 0 {
			s := t.begin("attack.feature_round", r, 1)
			res = l.recon.FeatureReplacement(cur, one)
			t.end(s)
			feature = append(feature, round{s, cur})
		} else {
			s := t.begin("attack.dimension_round", r, 1)
			res = l.recon.DimensionReplacement(cur, one)
			t.end(s)
			dimension = append(dimension, round{s, cur})
		}
		cur = res.Recon
	}
	t.end(r)
	m := t.begin("metrics.leakage", root, 1)
	delta, err := prid.MeasureLeakage(in.ds.TrainX, q, cur)
	t.end(m)
	t.end(root)

	h := make([]float64, l.basis.Dim())
	for _, fr := range feature {
		s := t.begin("hdc.encode", fr.span, 1)
		l.basis.EncodeInto(h, fr.input)
		t.end(s)
		s = t.begin("hdc.classify", fr.span, 1)
		l.model.Classify(h)
		t.end(s)
	}
	for _, dr := range dimension {
		l.basis.EncodeInto(h, dr.input)
		s := t.begin("decode.decode", dr.span, 1)
		l.decoder.Decode(h)
		t.end(s)
	}
	return err == nil && in.refs.check(i%len(in.probes), cur, delta)
}

// rungSummary aggregates one rung over the traced ops.
type rungSummary struct {
	durMS  float64 // mean per-op time in the rung
	selfMS float64 // mean per-op self time
	selfSE float64 // standard error of selfMS
	rows   int     // rows the rung handled, summed over ops
	durSum float64 // total ms, summed over ops
}

// summarize computes each rung's mean per-op duration and self time.
// Every op contributes to every rung the workload has, so the mean self
// times sum to the mean root duration.
func summarize(ops []opTrace) (rungs map[string]rungSummary, root string) {
	type acc struct {
		dur, self, selfSq float64
		rows              int
	}
	accs := map[string]*acc{}
	for _, op := range ops {
		perOp := map[string]*acc{}
		for k, s := range op.Spans {
			d := float64(s.EndNS-s.StartNS) / 1e6
			self := d
			for _, c := range op.Spans {
				if c.Parent == k {
					self -= float64(c.EndNS-c.StartNS) / 1e6
				}
			}
			if s.Parent == -1 {
				root = s.Name
			}
			a := perOp[s.Name]
			if a == nil {
				a = &acc{}
				perOp[s.Name] = a
			}
			a.dur += d
			a.self += self
			a.rows += s.Rows
		}
		for name, a := range perOp {
			t := accs[name]
			if t == nil {
				t = &acc{}
				accs[name] = t
			}
			t.dur += a.dur
			t.self += a.self
			t.selfSq += a.self * a.self
			t.rows += a.rows
		}
	}
	n := float64(len(ops))
	rungs = make(map[string]rungSummary, len(accs))
	for name, a := range accs {
		mean := a.self / n
		variance := math.Max(0, a.selfSq/n-mean*mean)
		rungs[name] = rungSummary{
			durMS:  a.dur / n,
			selfMS: mean,
			selfSE: math.Sqrt(variance / n),
			rows:   a.rows,
			durSum: a.dur,
		}
	}
	return rungs, root
}

// traced runs half the phase untraced, for the program's own counters
// and the throughput the tracing overhead is measured against, and half
// as the traced ladder replay. It reports the per-layer metrics.
func traced(ctx context.Context, in *instance, d time.Duration, setupSteps map[string]float64, spansOut string, log io.Writer) (result, error) {
	if err := in.prepareLadder(); err != nil {
		return result{}, fmt.Errorf("preparing ladder: %w", err)
	}
	plain := runPhase(ctx, d/2, 0, in.op(nil))
	logPhase(log, in, plain)
	ops, tr := tracedPhase(ctx, in, d/2, plain.nextOp)
	if err := writeSpans(spansOut, ops); err != nil {
		return result{}, err
	}

	rungs, root := summarize(ops)
	logf(log, "perfbench: %s seed %d traced: %d plain ops, %d traced ops, root rung %s; obs counters are process-global, so in gateway-batch the gateway's own backend client adds to serve.client.attempts\n",
		in.wl.name, in.seed, plain.attempted, tr.attempted, root)
	names := make([]string, 0, len(rungs))
	for name := range rungs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rungs[name]
		logf(log, "perfbench:   %-24s %9.4f ms/op, self %9.4f ± %.4f ms (standard error)\n", name, r.durMS, r.selfMS, r.selfSE)
	}
	m := perLayerMetrics(in, rungs, setupSteps, plain, tr, ops)
	return result{
		Correct:   plain.failed == 0 && tr.failed == 0,
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed,
		Metrics:   m,
	}, nil
}

// tracedPhase replays ops closed-loop down the ladder for d, numbering
// them from firstOp, and returns every op's spans in op order. Each
// caller keeps its own spans in memory until the phase ends.
func tracedPhase(ctx context.Context, in *instance, d time.Duration, firstOp int) ([]opTrace, phaseStats) {
	perCaller := make([][]opTrace, clients)
	epoch := time.Now()
	ps := runPhase(ctx, d, firstOp, func(ctx context.Context, w, i int) bool {
		t := opTrace{Op: i, epoch: epoch}
		var ok bool
		if in.wl.mode == modeAttack {
			ok = in.attackLadder(i, &t)
		} else {
			ok = in.predictLadder(ctx, i, &t)
		}
		perCaller[w] = append(perCaller[w], t)
		return ok
	})
	var ops []opTrace
	for _, o := range perCaller {
		ops = append(ops, o...)
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].Op < ops[b].Op })
	return ops, ps
}

// perLayerMetrics lists every per-layer metric. A rung the workload does
// not run reads 0: its layer is not on this workload's path.
func perLayerMetrics(in *instance, rungs map[string]rungSummary, setup map[string]float64, plain, tr phaseStats, ops []opTrace) map[string]metric {
	m := map[string]metric{}
	for _, step := range []string{"dataset.load_ms", "prid.train_ms", "prid.binarize_ms", "prid.new_attacker_ms", "serve.start_ms"} {
		m[step] = metric{setup[step], "ms"}
	}
	dur := func(name string) float64 { return rungs[name].durMS }
	self := func(name string) float64 { return rungs[name].selfMS }
	perRow := func(name string, scale float64) float64 {
		r := rungs[name]
		if r.rows == 0 {
			return 0
		}
		return r.durSum / float64(r.rows) * scale
	}
	for _, name := range []string{"gateway.predict", "client.predict", "engine.predict", "prid.predict_batch",
		"attack.probe", "attack.reconstruct", "attack.feature_round", "attack.dimension_round",
		"decode.decode", "metrics.leakage"} {
		m[name+"_ms"] = metric{dur(name), "ms"}
	}
	m["gateway.hop_ms"] = metric{self("gateway.predict"), "ms"}
	m["serve.transport_ms"] = metric{self("client.predict"), "ms"}
	m["engine.self_ms"] = metric{self("engine.predict"), "ms"}
	m["prid.self_ms"] = metric{self("prid.predict_batch"), "ms"}
	m["attack.probe_self_ms"] = metric{self("attack.probe"), "ms"}
	m["attack.reconstruct_self_ms"] = metric{self("attack.reconstruct"), "ms"}
	m["attack.feature_self_ms"] = metric{self("attack.feature_round"), "ms"}
	m["attack.dimension_self_ms"] = metric{self("attack.dimension_round"), "ms"}
	m["hdc.encode_ms_per_row"] = metric{perRow("hdc.encode", 1), "ms"}
	m["hdc.classify_us_per_row"] = metric{perRow("hdc.classify", 1000), "us"}

	// Computed, not timed: bytes the encode streams and multiply-adds it
	// does per row (the dense basis is n·D float64s, the packed one n·D bits).
	n, dim := float64(in.ds.Features), float64(in.sz.dim)
	bytesPerRow := n * dim * 8
	if in.bin != nil {
		bytesPerRow = n * dim / 8
	}
	m["hdc.encode_mb_per_row"] = metric{bytesPerRow / 1e6, "MB"}
	m["hdc.encode_mflop_per_row"] = metric{n * dim / 1e6, "MFLOP"}
	var reqBytes float64
	for _, op := range ops {
		reqBytes += float64(op.RequestBytes)
	}
	m["serve.request_kb"] = metric{reqBytes / float64(len(ops)) / 1024, "KB"}

	c := plain.counters
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	ops0 := float64(plain.attempted)
	// The latency tail as the callers see it, over the untraced half. It
	// has no bound: on a small shared machine it moves with CPU steal far
	// more than with the program (README.md, Noise).
	sorted := append([]float64(nil), plain.latMS...)
	sort.Float64s(sorted)
	m["client.p99_ms"] = metric{quantile(sorted, 0.99), "ms"}
	m["engine.queue_ms"] = metric{ratio(c["serve.batch.queue_seconds.sum"], c["serve.batch.queue_seconds.count"]) * 1000, "ms"}
	m["engine.batch_rows"] = metric{ratio(c["serve.batch.rows"], c["serve.batch.size.count"]), "rows"}
	m["client.attempts_per_op"] = metric{ratio(c["serve.client.attempts"], ops0), "ratio"}
	m["serve.rejected"] = metric{c["serve.rejected"], "count"}
	m["gateway.failovers"] = metric{c["gateway.failovers"], "count"}
	m["runtime.alloc_kb_per_op"] = metric{float64(plain.allocBytes) / 1024 / ops0, "KB"}
	m["runtime.gc_per_kop"] = metric{float64(plain.numGC) * 1000 / ops0, "count"}

	plainRate := ops0 / plain.elapsedS
	tracedRate := float64(tr.attempted) / tr.elapsedS
	m["trace.overhead_pct"] = metric{(plainRate - tracedRate) / plainRate * 100, "%"}
	m["trace.ops"] = metric{float64(len(ops)), "count"}
	return m
}

// writeSpans writes every traced op's spans, one op per line.
func writeSpans(path string, ops []opTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path) //pridlint:allow atomicwrite diagnostic output, rewritten by every traced run
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			f.Close() //pridlint:allow errdrop the encode error is the one reported
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //pridlint:allow errdrop the flush error is the one reported
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}
