package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"prid"
	"prid/internal/dataset"
	"prid/internal/gateway"
	"prid/internal/rng"
	"prid/internal/serve"
	"prid/internal/serve/client"
)

// clients is the number of closed-loop callers, each with its own
// goroutine; it matches the two cores the benchmark was sized on, so the
// callers never outnumber the cores the server shares with them.
const clients = 2

// attackIterations is the facade's default refinement depth, which every
// attack op runs; the traced replay reproduces it round by round.
const attackIterations = 4

// sizes is the scale of a workload's generated inputs.
type sizes struct {
	train, test int
	dim         int
	probes      int // fixed audit probe set, drawn from the test rows
	batchRows   int // rows per gateway-batch request
	// Set-up runs at least minSetups times and until setupSeconds have
	// passed (at most maxSetups); setup_s is the median. Cheap set-ups get
	// more samples, which steadies their median.
	minSetups, maxSetups int
	setupSeconds         float64
}

// fullSize is the benchmark's scale. 64 rows per gateway request is
// BatchMax (32) or more, so those requests bypass the micro-batcher.
var fullSize = sizes{train: 1000, test: 1000, dim: 2048, probes: 100, batchRows: 64,
	minSetups: 3, maxSetups: 15, setupSeconds: 2}

type mode int

const (
	modeServe   mode = iota // one serve node, single-row requests
	modeGateway             // gateway in front of two serve nodes, batch requests
	modeAttack              // in-process audit probes, no serving layer
)

// workload is one traffic mix. Why each exists is in README.md.
type workload struct {
	name    string
	dataset string
	mode    mode
	binary  bool
}

var workloads = map[string]workload{
	"predict-float":  {name: "predict-float", dataset: "MNIST", mode: modeServe},
	"predict-binary": {name: "predict-binary", dataset: "MNIST", mode: modeServe, binary: true},
	"gateway-batch":  {name: "gateway-batch", dataset: "ACTIVITY", mode: modeGateway},
	"attack":         {name: "attack", dataset: "MNIST", mode: modeAttack},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// instance is one set-up workload: generated data, trained model, the
// serving stack the ops go through, and the oracle that checks them.
type instance struct {
	wl    workload
	sz    sizes
	seed  uint64
	name  string // served model name
	ds    *dataset.Dataset
	model *prid.Model
	bin   *prid.BinaryModel // set in binary mode; it is what is served
	// attacker runs the attack workload's probes.
	attacker *prid.Attacker
	// probes are the test-row indices of the fixed audit probe set.
	probes []int

	servers []*serve.Server
	gw      *gateway.Gateway
	owner   *serve.Server  // the node that answers the ops
	root    *client.Client // the client every op goes through
	direct  *client.Client // gateway-batch: straight to the owner
	closers []func()

	rowsPerOp int
	// stream is the test rows twice over, so an op's rows are one
	// sub-slice even where they wrap past the last test row.
	stream [][]float64

	expected []int       // oracle: the facade's class for every test row
	refs     *attackRefs // oracle: first-pass reconstruction per probe
	ladder   *ladder     // hdc-level objects for the traced replay
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

// setupRepeated sets the workload up repeatedly (see sizes) and keeps
// the last instance. It returns the median set-up time in seconds and the
// median of each set-up step in milliseconds.
func setupRepeated(wl workload, seed uint64, sz sizes) (*instance, float64, map[string]float64, error) {
	var totals []float64
	steps := map[string][]float64{}
	var in *instance
	start := time.Now()
	for r := 0; r < sz.minSetups || (r < sz.maxSetups && time.Since(start).Seconds() < sz.setupSeconds); r++ {
		if in != nil {
			in.close()
		}
		var st map[string]float64
		var total float64
		var err error
		in, total, st, err = setupOnce(wl, seed, sz)
		if err != nil {
			return nil, 0, nil, err
		}
		totals = append(totals, total)
		for k, v := range st {
			steps[k] = append(steps[k], v)
		}
	}
	med := make(map[string]float64, len(steps))
	for k, v := range steps {
		med[k] = median(v)
	}
	return in, median(totals), med, nil
}

// setupOnce generates the data, trains, builds what the workload serves,
// and waits for the first correct response. The step times are in ms.
func setupOnce(wl workload, seed uint64, sz sizes) (in *instance, totalS float64, steps map[string]float64, err error) {
	start := time.Now()
	steps = map[string]float64{}
	lap := func(name string, t0 time.Time) { steps[name] = msSince(t0) }
	in = &instance{wl: wl, sz: sz, seed: seed, name: strings.ToLower(wl.dataset), rowsPerOp: 1}
	created := in // the error returns below set in to nil
	defer func() {
		if err != nil {
			created.close()
		}
	}()

	t := time.Now()
	in.ds, err = dataset.Load(wl.dataset, dataset.Config{TrainSize: sz.train, TestSize: sz.test, Seed: seed})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("generating %s: %w", wl.dataset, err)
	}
	lap("dataset.load_ms", t)
	in.stream = append(append([][]float64{}, in.ds.TestX...), in.ds.TestX...)
	in.probes = rng.New(seed ^ 0x70b35).Perm(len(in.ds.TestX))[:sz.probes]

	t = time.Now()
	in.model, err = prid.TrainClassifier(in.ds.TrainX, in.ds.TrainY, in.ds.Classes,
		prid.WithDimension(sz.dim), prid.WithSeed(seed))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("training: %w", err)
	}
	lap("prid.train_ms", t)

	if wl.binary {
		t = time.Now()
		in.bin = in.model.Binarize()
		lap("prid.binarize_ms", t)
	}

	switch wl.mode {
	case modeAttack:
		t = time.Now()
		in.attacker, err = prid.NewAttacker(in.model)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("building attacker: %w", err)
		}
		lap("prid.new_attacker_ms", t)
		in.refs = newAttackRefs(sz.probes)
		if !in.attackOp(0) {
			return nil, 0, nil, errors.New("first audit probe did not produce a valid reconstruction")
		}
	case modeServe, modeGateway:
		nodes := 1
		if wl.mode == modeGateway {
			nodes = 2
			in.rowsPerOp = sz.batchRows
		}
		t = time.Now()
		if err := in.startServing(nodes); err != nil {
			return nil, 0, nil, err
		}
		lap("serve.start_ms", t)
		rows, first := in.rowsFor(0)
		want, err := in.facadePredict(rows)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("in-process predict: %w", err)
		}
		got, err := in.root.Predict(context.Background(), in.name, rows) //pridlint:allow leaksurface sends generated test rows, not model data
		if err != nil {
			return nil, 0, nil, fmt.Errorf("first predict: %w", err)
		}
		if !equalInts(got, want) {
			return nil, 0, nil, fmt.Errorf("first predict at row %d: served %v, in-process %v", first, got, want)
		}
	}
	return in, time.Since(start).Seconds(), steps, nil
}

// startServing starts nodes serve nodes holding the model on loopback
// and, for more than one, a gateway in front of them.
func (in *instance) startServing(nodes int) error {
	var urls []string
	for i := 0; i < nodes; i++ {
		srv := serve.NewServer(serve.Config{Addr: "127.0.0.1:0"})
		if in.bin != nil {
			srv.Registry().RegisterBinary(in.name, "", in.bin)
		} else {
			srv.Registry().Register(in.name, "", in.model)
		}
		if err := srv.Start(); err != nil {
			return fmt.Errorf("starting serve node: %w", err)
		}
		in.closers = append(in.closers, func() { shutdown(srv.Shutdown) })
		in.servers = append(in.servers, srv)
		urls = append(urls, "http://"+srv.Addr())
	}
	in.owner = in.servers[0]
	base := urls[0]
	if nodes > 1 {
		// Seed and VNodes are set rather than defaulted so the ring built
		// below names the same owner the gateway routes to.
		const ringSeed, vnodes = 1, 64
		gw, err := gateway.New(gateway.Config{Addr: "127.0.0.1:0", Backends: urls, Seed: ringSeed, VNodes: vnodes})
		if err != nil {
			return fmt.Errorf("building gateway: %w", err)
		}
		if err := gw.Start(); err != nil {
			return fmt.Errorf("starting gateway: %w", err)
		}
		in.closers = append(in.closers, func() { shutdown(gw.Shutdown) })
		in.gw = gw
		base = "http://" + gw.Addr()
		ring := gateway.NewRing(ringSeed, vnodes)
		for _, u := range urls {
			ring.Add(u)
		}
		ownerURL, _ := ring.Lookup(in.name)
		for i, u := range urls {
			if u == ownerURL {
				in.owner = in.servers[i]
			}
		}
		in.direct = newClient(in, ownerURL)
	}
	in.root = newClient(in, base)
	return nil
}

// newClient builds a client with its own connection pool of at most
// `clients` connections and no retries: a failed attempt is a failed op.
func newClient(in *instance, base string) *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	cli, err := client.New(client.Config{BaseURL: base, HTTPClient: &http.Client{Transport: tr}, MaxAttempts: 1})
	if err != nil {
		panic(err) // base is built from a bound listener address
	}
	in.closers = append(in.closers, tr.CloseIdleConnections)
	return cli
}

func shutdown(fn func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = fn(ctx) // teardown after the measurement; nothing is left to report to
}

// prepareOracle computes the in-process answer for every test row (or,
// for attack, nothing: the first pass of each probe is its reference).
func (in *instance) prepareOracle() error {
	if in.wl.mode == modeAttack {
		return nil
	}
	var err error
	in.expected, err = in.facadePredict(in.ds.TestX)
	if err != nil {
		return fmt.Errorf("computing oracle: %w", err)
	}
	return nil
}

// facadePredict is the in-process answer of the model being served.
func (in *instance) facadePredict(rows [][]float64) ([]int, error) {
	if in.bin != nil {
		return in.bin.PredictBatch(rows)
	}
	return in.model.PredictBatch(rows)
}

// rowsFor returns op i's rows and the stream position of the first one:
// ops walk the test rows in order and wrap around.
func (in *instance) rowsFor(i int) ([][]float64, int) {
	start := (i * in.rowsPerOp) % len(in.ds.TestX)
	return in.stream[start : start+in.rowsPerOp], start
}

// matchesOracle reports whether preds are the in-process answers for the
// rows starting at stream position start.
func (in *instance) matchesOracle(preds []int, start int) bool {
	if len(preds) != in.rowsPerOp {
		return false
	}
	n := len(in.ds.TestX)
	for j, p := range preds {
		if p != in.expected[(start+j)%n] {
			return false
		}
	}
	return true
}

// probe returns the query row of audit probe i; probes cycle in order.
func (in *instance) probe(i int) []float64 {
	return in.ds.TestX[in.probes[i%len(in.probes)]]
}

// predictOp sends op i through the root client and checks the answer.
func (in *instance) predictOp(ctx context.Context, i int, pass *firstPass) bool {
	rows, start := in.rowsFor(i)
	preds, err := in.root.Predict(ctx, in.name, rows)
	ok := err == nil && in.matchesOracle(preds, start)
	pass.record(i*in.rowsPerOp, in.rowsPerOp, preds, ok)
	return ok
}

// op is the workload's untraced op. pass, when set, collects the
// predict workloads' first pass over the test rows.
func (in *instance) op(pass *firstPass) opFunc {
	if in.wl.mode == modeAttack {
		return func(_ context.Context, _, i int) bool { return in.attackOp(i) }
	}
	return func(ctx context.Context, _, i int) bool { return in.predictOp(ctx, i, pass) }
}

// attackOp runs audit probe i: reconstruct, then score the leakage.
func (in *instance) attackOp(i int) bool {
	q := in.probe(i)
	rec, err := in.attacker.Reconstruct(q)
	if err != nil {
		return false
	}
	delta, err := prid.MeasureLeakage(in.ds.TrainX, q, rec.Data)
	if err != nil {
		return false
	}
	return in.refs.check(i%len(in.probes), rec.Data, delta)
}

// firstPass keeps the served answer for each of the first len(slots)
// stream positions: one full pass over the test rows, scored as accuracy.
type firstPass struct {
	slots []int // the served class; -2 until attempted, -1 if the op failed
}

func newFirstPass(n int) *firstPass {
	p := &firstPass{slots: make([]int, n)}
	for i := range p.slots {
		p.slots[i] = -2 // not yet attempted
	}
	return p
}

// record stores an op's answers. Each stream position below the pass
// length belongs to exactly one op, so concurrent ops write disjoint
// elements.
func (p *firstPass) record(pos, rows int, preds []int, ok bool) {
	if p == nil {
		return
	}
	for j := 0; j < rows && pos+j < len(p.slots); j++ {
		if !ok {
			p.slots[pos+j] = -1
			continue
		}
		p.slots[pos+j] = preds[j]
	}
}

// missingOps lists the ops whose rows the pass has not seen yet.
func (p *firstPass) missingOps(rowsPerOp int) []int {
	var ops []int
	for pos := 0; pos < len(p.slots); pos += rowsPerOp {
		if p.slots[pos] == -2 {
			ops = append(ops, pos/rowsPerOp)
		}
	}
	return ops
}

func (p *firstPass) accuracy(labels []int) float64 {
	hit := 0
	for i, c := range p.slots {
		if c == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(p.slots))
}

// attackRefs holds each probe's first-pass reconstruction and Δ; later
// passes must reproduce them bit for bit.
type attackRefs struct {
	mu     sync.Mutex
	recon  [][]float64
	delta  []float64
	filled int
}

func newAttackRefs(n int) *attackRefs {
	return &attackRefs{recon: make([][]float64, n), delta: make([]float64, n)}
}

func (r *attackRefs) check(k int, recon []float64, delta float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recon[k] == nil {
		if !validDelta(delta) || !allFinite(recon) {
			return false
		}
		r.recon[k], r.delta[k] = recon, delta
		r.filled++
		return true
	}
	if math.Float64bits(delta) != math.Float64bits(r.delta[k]) || len(recon) != len(r.recon[k]) {
		return false
	}
	for j, v := range recon {
		if math.Float64bits(v) != math.Float64bits(r.recon[k][j]) {
			return false
		}
	}
	return true
}

// meanDelta is the mean first-pass Δ over the probe set, summed in
// probe order so it is bit-identical run to run.
func (r *attackRefs) meanDelta() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum float64
	for _, d := range r.delta {
		sum += d
	}
	return sum / float64(len(r.delta))
}

func (r *attackRefs) complete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled == len(r.recon)
}

func validDelta(d float64) bool { return d >= 0 && d <= 1 }

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(v) > 0
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
