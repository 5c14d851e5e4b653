package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// servingConfig shapes the serving workload: the synthetic models and the
// two open-loop rates.
type servingConfig struct {
	models   int     // synthetic models
	layers   int     // fc layers per model
	width    int     // every layer is width×width
	density  float64 // kept fraction after pruning
	eb       float64 // error bound of every layer
	rows     int     // rows per predict
	variants int     // distinct prepared predicts per model
	// agreeRows is how many seeded rows per model top1_retained compares
	// the compressed and the uncompressed network on.
	agreeRows  int
	lowRate    float64
	highRate   float64
	setupReps  int
	encodeReps int // Generate runs behind encode_s beyond set-up's
}

// hotConfig: every replica holds every model (the caches are unlimited),
// so after warm-up no request decodes and the time goes to HTTP/JSON,
// routing, batching and kernels.
func hotConfig(o options) servingConfig {
	c := servingConfig{models: 8, layers: 3, width: 512, density: 0.1, eb: 1e-3,
		rows: 4, variants: 16, agreeRows: 128, lowRate: 50, highRate: 100,
		setupReps: 3, encodeReps: 24}
	if o.tiny {
		c.variants, c.agreeRows, c.setupReps, c.encodeReps = 2, 16, 1, 0
	}
	return c
}

// codecFor assigns codecs: sz for all but the last two models, then one
// zfp and one deepcomp.
func (c servingConfig) codecFor(i int) codec.ID {
	switch i {
	case c.models - 2:
		return codec.IDZFP
	case c.models - 1:
		return codec.IDDeepComp
	}
	return codec.IDSZ
}

func modelName(i int) string { return fmt.Sprintf("m%d", i) }

// servingModels are the workload's models: the pruned networks and their
// DeepSZ encodings.
type servingModels struct {
	nets  []*nn.Network
	mods  []*core.Model
	blobs [][]byte
}

// drawNets draws the seeded synthetic networks and prunes them to the
// configured density: the workload's input, made once per run.
func drawNets(seed uint64, c servingConfig) []*nn.Network {
	nets := make([]*nn.Network, c.models)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < c.models; i += workers {
				nets[i] = drawNet(seed, i, c)
			}
		}(w)
	}
	wg.Wait()
	return nets
}

// drawNet draws synthetic network i: seeded weights pruned to the
// configured density by magnitude.
func drawNet(seed uint64, i int, c servingConfig) *nn.Network {
	rng := tensor.NewRNG(seed*1_000_003 + uint64(i))
	layers := []nn.Layer{nn.NewFlatten("flat")}
	ratios := map[string]float64{}
	for l := 0; l < c.layers; l++ {
		name := fmt.Sprintf("fc%d", l)
		layers = append(layers, nn.NewDense(name, c.width, c.width, rng), nn.NewReLU(name+"-relu"))
		ratios[name] = c.density
	}
	net := nn.NewNetwork(fmt.Sprintf("bench-%d", i), layers...)
	prune.Network(net, ratios, c.density)
	// Only the weights are input; dropping the gradient storage keeps the
	// benchmark's share of the heap the replicas' collector walks small.
	for _, d := range net.DenseLayers() {
		d.W.Grad.Data = nil
	}
	return net
}

// generate encodes every network with core.Generate at the configured
// error bound and codec, returning the time Generate took.
func generate(nets []*nn.Network, c servingConfig) (*servingModels, time.Duration, error) {
	sm := &servingModels{nets: nets}
	var gen time.Duration
	for i, net := range nets {
		plan := &core.Plan{}
		for _, d := range net.DenseLayers() {
			plan.Choices = append(plan.Choices, core.Choice{Layer: d.Name(), EB: c.eb})
		}
		start := time.Now()
		m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01, Codec: c.codecFor(i)})
		gen += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		sm.mods = append(sm.mods, m)
		sm.blobs = append(sm.blobs, m.Marshal())
	}
	return sm, gen, nil
}

// newReplicaRegistry configures a registry as deepszd's flag defaults do,
// with an unlimited cache: lru, prefetch depth 1, autotune on, batches of
// 32 rows with a 2 ms window, 256 pending predicts.
func newReplicaRegistry(sm *servingModels, c servingConfig) (*serve.Registry, error) {
	reg := serve.NewRegistry(0, serve.BatchOptions{MaxBatch: 32, Window: 2 * time.Millisecond, MaxPending: 256})
	if err := reg.SetEvictionPolicy(serve.EvictLRU); err != nil {
		reg.Close()
		return nil, err
	}
	reg.SetSparseThreshold(serve.DefaultSparseThreshold)
	reg.SetAutotuneSparse(true)
	reg.SetPrefetchDepth(1)
	for i := range sm.mods {
		if _, err := reg.Add(modelName(i), sm.mods[i], sm.nets[i], []int{c.width}); err != nil {
			reg.Close()
			return nil, err
		}
	}
	return reg, nil
}

// routeRecorder remembers which backend host served each traced request,
// keyed by the trace ID the benchmark sent, so the traced run can repeat
// the request against the same replica.
type routeRecorder struct {
	next http.RoundTripper
	on   atomic.Bool
	host sync.Map // trace ID → "replica-N"
}

func (rr *routeRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if rr.on.Load() {
		if id := req.Header.Get(telemetry.TraceHeader); id != "" {
			rr.host.LoadOrStore(id, req.URL.Hostname())
		}
	}
	return rr.next.RoundTrip(req)
}

// fleet is two replicas behind one gateway, all on loopback listeners.
type fleet struct {
	regs     []*serve.Registry
	servers  []*http.Server
	urls     []string // replica base URLs as dialled directly
	gw       *gateway.Gateway
	gwServer *http.Server
	gwURL    string
	routes   *routeRecorder
}

const replicas = 2

// startFleet starts the replicas and the gateway. The gateway knows the
// replicas as http://replica-N; its client's dialer maps those names to
// the ephemeral listeners, so the rendezvous ranking is the same on every
// run.
func startFleet(sm *servingModels, c servingConfig) (*fleet, error) {
	f := &fleet{}
	names := map[string]string{}
	var backends []string
	for i := 0; i < replicas; i++ {
		// A replica autotunes its kernels with 2 ms timings as it starts.
		// deepszd does that in a fresh, quiet process; here the benchmark
		// has just allocated the workload in the same process, so let the
		// collector finish first instead of timing against it.
		runtime.GC()
		reg, err := newReplicaRegistry(sm, c)
		if err != nil {
			f.close()
			return nil, err
		}
		f.regs = append(f.regs, reg)
		srv, addr, err := listen(serve.NewServerWith(reg, serve.ServerOptions{MaxBodyBytes: 8 << 20}))
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, "http://"+addr)
		host := fmt.Sprintf("replica-%d", i)
		names[host+":80"] = addr
		backends = append(backends, "http://"+host)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := names[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	f.routes = &routeRecorder{next: tr}
	g, err := gateway.New(backends, gateway.Options{Client: &http.Client{Transport: f.routes, Timeout: time.Minute}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = g
	srv, addr, err := listen(g)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gwServer, f.gwURL = srv, "http://"+addr
	return f, nil
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := cliutil.NewHTTPServer(h)
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// close stops the gateway, the servers and the registries, and waits for
// their goroutines.
func (f *fleet) close() {
	if f.gwServer != nil {
		f.gwServer.Close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	if f.routes != nil {
		f.routes.next.(*http.Transport).CloseIdleConnections()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, r := range f.regs {
		r.Close()
	}
}

// requests are the prepared predicts: per model, per variant, the rows,
// their JSON body, and the expected answer.
type requests struct {
	rows   [][][][]float32 // [model][variant] rows
	bodies [][][]byte
	want   [][]answer
}

// answer is a predict's reference logits and the response body a server
// encodes for them.
type answer struct {
	logits [][]float32
	body   []byte
}

func newAnswer(logits [][]float32) (answer, error) {
	resp := struct {
		Outputs [][]float32 `json:"outputs"`
		Argmax  []int       `json:"argmax"`
	}{Outputs: logits}
	for _, row := range logits {
		resp.Argmax = append(resp.Argmax, argmax(row))
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(resp)
	return answer{logits: logits, body: b.Bytes()}, err
}

// prepareRequests draws the seeded rows and computes each predict's
// reference logits with Engine.Predict on an unbudgeted registry.
func prepareRequests(seed uint64, sm *servingModels, c servingConfig, corrupt bool) (*requests, error) {
	ref := serve.NewRegistry(0, serve.BatchOptions{})
	defer ref.Close()
	for i := range sm.mods {
		if _, err := ref.Add(modelName(i), sm.mods[i], sm.nets[i], []int{c.width}); err != nil {
			return nil, err
		}
	}
	rng := tensor.NewRNG(seed ^ 0x5eed)
	rq := &requests{}
	for m := 0; m < c.models; m++ {
		e, _ := ref.Get(modelName(m))
		var rows [][][]float32
		var bodies [][]byte
		var want []answer
		for v := 0; v < c.variants; v++ {
			rs := make([][]float32, c.rows)
			for k := range rs {
				rs[k] = make([]float32, c.width)
				rng.FillNormal(rs[k], 0, 1)
			}
			body, err := json.Marshal(map[string]any{"inputs": rs})
			if err != nil {
				return nil, err
			}
			out, err := e.Predict(rs)
			if err != nil {
				return nil, err
			}
			if corrupt {
				out[0][0] = math.Float32frombits(math.Float32bits(out[0][0]) ^ 1)
			}
			a, err := newAnswer(out)
			if err != nil {
				return nil, err
			}
			rows, bodies, want = append(rows, rs), append(bodies, body), append(want, a)
		}
		rq.rows, rq.bodies, rq.want = append(rq.rows, rows), append(rq.bodies, bodies), append(rq.want, want)
	}
	return rq, nil
}

func sameRows(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// newSenderClient gives one sender its own single keep-alive connection.
func newSenderClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// post sends one predict and checks the answer against want: a body equal
// to the expected one byte for byte is right; any other is parsed and its
// logits compared bit for bit. It returns the outcome and the time the
// answer had fully arrived.
func post(client *http.Client, url string, body []byte, traceID string, want answer) (outcome, time.Time) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return refused, time.Now()
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(telemetry.TraceHeader, traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return refused, time.Now()
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return refused, done
	}
	if bytes.Equal(b, want.body) {
		return answered, done
	}
	var got struct {
		Outputs [][]float32 `json:"outputs"`
	}
	if json.Unmarshal(b, &got) != nil || !sameRows(got.Outputs, want.logits) {
		return wrong, done
	}
	return answered, done
}

func senderCount() int { return min(2, runtime.NumCPU()) }

// counters is a snapshot of every replica's and the gateway's counters.
type counters struct {
	cache   []serve.CacheStats
	engines [][]serve.EngineStats
	gw      gateway.Stats
}

func snapshot(f *fleet, c servingConfig) counters {
	var s counters
	for _, reg := range f.regs {
		s.cache = append(s.cache, reg.Cache().Stats())
		var es []serve.EngineStats
		for m := 0; m < c.models; m++ {
			e, _ := reg.Get(modelName(m))
			es = append(es, e.Stats())
		}
		s.engines = append(s.engines, es)
	}
	s.gw = f.gw.Stats()
	return s
}

func runServing(o options, c servingConfig, r *report) error {
	measure := time.Duration(o.seconds * float64(time.Second))
	senders := senderCount()

	// The pruned networks, the prepared predicts and their reference
	// logits are the workload's input, made outside set-up timing.
	nets := drawNets(o.seed, c)
	sm, _, err := generate(nets, c)
	if err != nil {
		return err
	}
	rq, err := prepareRequests(o.seed, sm, c, o.corruptRef)
	if err != nil {
		return err
	}
	// Set-up, several times: model generation, replica start with
	// autotuning, gateway start and warm-up. The median is setup_s, each
	// Generate time joins encode_s's sample, and the last fleet is measured.
	var setups, gens, starts []float64
	var f *fleet
	for rep := 0; rep < c.setupReps; rep++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		start := time.Now()
		var gen time.Duration
		if sm, gen, err = generate(nets, c); err != nil {
			return err
		}
		generated := time.Now()
		if f, err = startFleet(sm, c); err != nil {
			return err
		}
		started := time.Now()
		if err := warm(f, rq, c, r); err != nil {
			f.close()
			return err
		}
		setups, gens = append(setups, time.Since(start).Seconds()), append(gens, gen.Seconds())
		starts = append(starts, started.Sub(generated).Seconds())
	}
	r.detail["setup_breakdown_s"] = map[string]float64{"generate": median(gens), "fleet_start": median(starts)}
	defer f.close()
	r.set("setup_s", "s", median(setups))

	// Exact outcomes of the encoding: ratio, and how often the compressed
	// model's top-1 class agrees with the uncompressed network's.
	var dense, comp int64
	for m := range sm.mods {
		dense += sm.mods[m].TotalDenseBytes()
		comp += int64(sm.mods[m].TotalBytes())
	}
	r.set("compression_ratio", "x", float64(dense)/float64(comp))
	agree, err := top1Agreement(o.seed, sm, c)
	if err != nil {
		return err
	}
	r.set("top1_retained", "ratio", agree)

	// The measured phase: open-loop predicts through the gateway at the
	// low and the high rate for seven tenths of it, interleaved with the
	// Generate and decode timings behind encode_s and decode_s, which take
	// the rest.
	clients := make([]*http.Client, senders)
	for i := range clients {
		clients[i] = newSenderClient()
	}
	defer func() {
		for _, cl := range clients {
			cl.Transport.(*http.Transport).CloseIdleConnections()
		}
	}()
	send := func(s int, j job) (outcome, time.Time) {
		return post(clients[s], fmt.Sprintf("%s/v1/models/%s/predict", f.gwURL, modelName(j.model)),
			rq.bodies[j.model][j.variant], "", rq.want[j.model][j.variant])
	}
	// probe times the Generate runs behind encode_s, and Unmarshal plus a
	// verified Decode of every model's stream behind decode_s.
	var decodeS []float64
	probe := func() error {
		for i := 0; i < c.encodeReps/slices; i++ {
			runtime.GC()
			_, gen, err := generate(nets, c)
			if err != nil {
				return err
			}
			gens = append(gens, gen.Seconds())
		}
		end := time.Now().Add(measure / (10 * slices))
		for rep := 0; rep < 7 || (time.Now().Before(end) && rep < 1000); rep++ {
			// A rep allocates every layer afresh (24 MiB for 8 models); from a
			// collected heap that fits below the next collection, so no
			// rep times a collection, whose stop-the-world phases wait on
			// any CPU the host has taken away.
			runtime.GC()
			start := time.Now()
			for _, b := range sm.blobs {
				if _, err := decodeBlob(b); err != nil {
					return err
				}
			}
			decodeS = append(decodeS, time.Since(start).Seconds())
			r.attempted += len(sm.blobs)
		}
		return nil
	}
	rng := tensor.NewRNG(o.seed)
	warmUp(rng, c.lowRate, c.models, c.variants, senders, send)
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	r.detail["live_heap_mb"] = float64(mem.HeapAlloc) / 1e6
	before := snapshot(f, c)
	low, high, err := interleave(rng, measure*7/10, c.lowRate, c.highRate, c.models, c.variants, senders, send, probe)
	if err != nil {
		return err
	}
	r.set("encode_s", "s", median(gens))
	r.set("decode_s", "s", median(decodeS))
	r.detail["encode_s_samples"], r.detail["decode_reps"] = gens, len(decodeS)
	after := snapshot(f, c)
	reportPhases(r, low, high)
	reportCounters(r, c, before, after)
	r.detail["rates_rps"] = map[string]float64{"low": c.lowRate, "high": c.highRate}
	r.detail["replica_budget_bytes"] = 0 // unlimited
	r.detail["models"] = map[string]any{"count": c.models, "layers": c.layers, "width": c.width,
		"density": c.density, "eb": c.eb, "rows_per_request": c.rows}
	// The dense/CSR threshold in force per layer shape, autotuned or not.
	// Replicas tune independently; the metric is the lowest, the one that
	// keeps the most layers dense.
	thresholds := map[string][]float64{}
	for _, reg := range f.regs {
		e, _ := reg.Get(modelName(0))
		for _, lm := range e.LayerMeta() {
			key := fmt.Sprintf("%dx%d", lm.Shape[0], lm.Shape[1])
			thresholds[key] = append(thresholds[key], lm.SparseThreshold)
		}
	}
	for key, ts := range thresholds {
		lo := ts[0]
		for _, t := range ts {
			lo = math.Min(lo, t)
		}
		r.set("serve.autotune_threshold."+key, "density", lo)
	}
	r.detail["sparse_thresholds"] = thresholds

	if o.trace {
		// The untraced round trip from send to answer: the interval the
		// traced run's client.gateway span covers.
		var rtt []float64
		for _, s := range low.samples {
			rtt = append(rtt, ms(s.latency-s.late))
		}
		return traceServing(o, c, r, f, sm, rq, median(rtt))
	}
	return nil
}

// warm loads every model on every replica by posting to each replica
// directly; warming through the gateway alone leaves the spill peer cold.
// A refused warm-up predict is an error; a wrong answer fails the run's
// checks.
func warm(f *fleet, rq *requests, c servingConfig, r *report) error {
	cl := newSenderClient()
	defer cl.Transport.(*http.Transport).CloseIdleConnections()
	for _, u := range f.urls {
		for m := 0; m < c.models; m++ {
			oc, _ := post(cl, fmt.Sprintf("%s/v1/models/%s/predict", u, modelName(m)), rq.bodies[m][0], "", rq.want[m][0])
			r.attempted++
			if oc != answered {
				r.failed++
			}
			r.check(oc != wrong, "warm-up predict of %s on %s: wrong answer", modelName(m), u)
			if oc == refused {
				return fmt.Errorf("warm-up predict of %s on %s refused", modelName(m), u)
			}
		}
	}
	return nil
}

// reportCounters sets the cache, engine and gateway metrics from counter
// deltas over the measured phase.
func reportCounters(r *report, c servingConfig, b, a counters) {
	var hits, misses, coal, evict, pf, pfHits, pfWaste, drops uint64
	var decode time.Duration
	for i := range a.cache {
		x, y := b.cache[i], a.cache[i]
		hits += y.Hits - x.Hits
		misses += y.Misses - x.Misses
		coal += y.Coalesced - x.Coalesced
		evict += y.Evictions - x.Evictions
		pf += y.Prefetches - x.Prefetches
		pfHits += y.PrefetchHits - x.PrefetchHits
		pfWaste += y.PrefetchWaste - x.PrefetchWaste
		drops += y.AdmissionDrops - x.AdmissionDrops
		decode += y.DecodeTime - x.DecodeTime
	}
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	r.set("serve.cache.hit_rate", "ratio", ratio(hits, hits+misses))
	r.set("serve.cache.effective_hit_rate", "ratio", ratio(hits+coal, hits+misses+coal))
	r.set("serve.cache.misses", "count", float64(misses))
	r.set("serve.cache.coalesced", "count", float64(coal))
	r.set("serve.cache.evictions", "count", float64(evict))
	r.set("serve.cache.prefetches", "count", float64(pf))
	r.set("serve.cache.prefetch_hits", "count", float64(pfHits))
	r.set("serve.cache.prefetch_waste", "count", float64(pfWaste))
	r.set("serve.cache.prefetch_useful", "ratio", ratio(pfHits, pf))
	r.set("serve.cache.admission_drops", "count", float64(drops))
	r.set("serve.cache.decode_s", "s", decode.Seconds())

	var batches, rows, shed uint64
	for i := range a.engines {
		for m := range a.engines[i] {
			x, y := b.engines[i][m], a.engines[i][m]
			batches += y.Batches - x.Batches
			rows += y.Rows - x.Rows
			shed += y.Shed - x.Shed
		}
	}
	r.set("serve.engine.batches", "count", float64(batches))
	r.set("serve.engine.avg_batch_rows", "rows", ratio(rows, batches))
	r.set("serve.engine.shed", "count", float64(shed))

	r.set("gateway.hedges", "count", float64(a.gw.Hedges-b.gw.Hedges))
	r.set("gateway.failovers", "count", float64(a.gw.Failovers-b.gw.Failovers))
	r.set("gateway.shed", "count", float64(a.gw.Shed-b.gw.Shed))
	var reqs, top uint64
	for i := range a.gw.Backends {
		d := a.gw.Backends[i].Requests - b.gw.Backends[i].Requests
		reqs += d
		top = max(top, d)
	}
	r.set("gateway.primary_share", "ratio", ratio(top, reqs))
}

// top1Agreement is the share of c.agreeRows seeded rows per model on which
// the compressed model's top-1 class equals the uncompressed network's.
func top1Agreement(seed uint64, sm *servingModels, c servingConfig) (float64, error) {
	rng := tensor.NewRNG(seed ^ 0xa9ee)
	agree := 0
	for m, net := range sm.nets {
		recon := net.Clone()
		if _, err := sm.mods[m].Apply(recon); err != nil {
			return 0, err
		}
		x := tensor.New(c.agreeRows, c.width)
		rng.FillNormal(x.Data, 0, 1)
		want, got := net.Forward(x, false).Data, recon.Forward(x, false).Data
		for k := 0; k < c.agreeRows; k++ {
			row := want[k*c.width : (k+1)*c.width]
			if argmax(row) == argmax(got[k*c.width:(k+1)*c.width]) {
				agree++
			}
		}
	}
	return float64(agree) / float64(c.agreeRows*len(sm.nets)), nil
}

func flatten(rows [][]float32) []float32 {
	var out []float32
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func argmax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// spanProvider is the traced run's weight provider: it times each
// Engine.LayerWeights call as serve.weights.<layer>, and the time from one
// provider return to the next call as tensor.kernel.<layer> — the kernel
// (with its fused ReLU) of the layer just provided.
type spanProvider struct {
	e      *serve.Engine
	t      *tracer
	parent int64
	req    string
	last   string
	ret    time.Time
}

func (p *spanProvider) LayerWeights(name string) (nn.LayerWeights, func(), error) {
	p.closeKernel(time.Now())
	start := time.Now()
	lw, rel, err := p.e.LayerWeights(name)
	end := time.Now()
	p.t.add(p.t.id(), p.parent, "serve.weights."+name, p.req, start, end)
	p.last, p.ret = name, end
	return lw, rel, err
}

func (p *spanProvider) closeKernel(now time.Time) {
	if p.last != "" {
		p.t.add(p.t.id(), p.parent, "tensor.kernel."+p.last, p.req, p.ret, now)
		p.last = ""
	}
}

// traceServing is the traced phase of a serving run, at the low rate.
// Each request, under one request span, goes client→gateway, then to the
// replica that answered it, then straight to that replica's engine
// batched and unbatched, then through the benchmark's own
// ForwardWithProvider over a stripped clone; every answer is checked.
// Per-layer times come from the span file written at the end.
func traceServing(o options, c servingConfig, r *report, f *fleet, sm *servingModels, rq *requests, untracedRTT float64) error {
	t := newTracer()
	senders := senderCount()
	gwClients := make([]*http.Client, senders)
	repClients := make([]*http.Client, senders)
	clones := make([][]*nn.Network, senders)
	for s := 0; s < senders; s++ {
		gwClients[s], repClients[s] = newSenderClient(), newSenderClient()
		for m := range sm.nets {
			cl := sm.nets[m].Clone()
			nn.StripWeights(cl, nil)
			clones[s] = append(clones[s], cl)
		}
	}
	defer func() {
		for s := 0; s < senders; s++ {
			gwClients[s].Transport.(*http.Transport).CloseIdleConnections()
			repClients[s].Transport.(*http.Transport).CloseIdleConnections()
		}
	}()
	f.routes.on.Store(true)
	defer f.routes.on.Store(false)

	var wrongs atomic.Int64
	check := func(ok bool) {
		if !ok {
			wrongs.Add(1)
		}
	}
	send := func(s int, j job) (outcome, time.Time) {
		id := telemetry.MintID()
		model := modelName(j.model)
		body, want := rq.bodies[j.model][j.variant], rq.want[j.model][j.variant]
		root := t.id()
		start := time.Now()
		var oc outcome
		var answeredAt time.Time
		t.timed(root, "client.gateway", id, func() error {
			oc, answeredAt = post(gwClients[s], fmt.Sprintf("%s/v1/models/%s/predict", f.gwURL, model), body, id, want)
			return nil
		})
		rep := 0
		if h, ok := f.routes.host.Load(id); ok {
			fmt.Sscanf(strings.TrimPrefix(h.(string), "replica-"), "%d", &rep)
			f.routes.host.Delete(id)
		}
		t.timed(root, "client.replica", id, func() error {
			roc, _ := post(repClients[s], fmt.Sprintf("%s/v1/models/%s/predict", f.urls[rep], model), body, "", want)
			check(roc == answered)
			return nil
		})
		e, _ := f.regs[rep].Get(model)
		rows := rq.rows[j.model][j.variant]
		t.timed(root, "serve.predict_batched", id, func() error {
			out, err := e.PredictBatched(rows)
			check(err == nil && sameRows(out, want.logits))
			return nil
		})
		t.timed(root, "serve.predict", id, func() error {
			out, err := e.Predict(rows)
			check(err == nil && sameRows(out, want.logits))
			return nil
		})
		fwd := t.id()
		fstart := time.Now()
		p := &spanProvider{e: e, t: t, parent: fwd, req: id}
		y, err := clones[s][j.model].ForwardWithProvider(tensor.FromSlice(flatten(rows), c.rows, c.width), p)
		fend := time.Now()
		p.closeKernel(fend)
		t.add(fwd, root, "nn.forward", id, fstart, fend)
		check(err == nil && sameBits(y.Data, flatten(want.logits)))
		t.add(root, 0, "request", id, start, time.Now())
		return oc, answeredAt
	}
	dur, _ := splitPhases(time.Duration(o.seconds * float64(time.Second) * 4 / 5))
	rng := tensor.NewRNG(o.seed ^ 0x7ace)
	ph := drive("traced", c.lowRate, dur, poissonSchedule(rng, c.lowRate, dur, c.models, c.variants), senders, send)
	st := ph.stats()
	r.attempted += st.Sent * 5
	r.failed += st.Wrong + st.Refused + int(wrongs.Load())
	r.check(st.Wrong == 0 && wrongs.Load() == 0, "traced phase: %d gateway and %d direct answers differ from the reference", st.Wrong, wrongs.Load())
	r.detail["traced_phase"] = st

	path := spanFile(o)
	if err := t.write(path); err != nil {
		return err
	}
	spans, err := readSpans(path)
	if err != nil {
		return err
	}
	ix := indexSpans(spans)
	for _, bad := range ix.uncontained() {
		r.check(false, "span %s", bad)
	}
	r.detail["span_file"] = path
	r.detail["spans"] = len(spans)

	// Per-request differences between sibling spans, by request.
	perReq := map[string]map[string]float64{}
	for name, ss := range ix.byName {
		for _, s := range ss {
			if perReq[s.RequestID] == nil {
				perReq[s.RequestID] = map[string]float64{}
			}
			perReq[s.RequestID][name] = ms(ix.self[s.ID])
		}
	}
	var gwOver, httpMs, wait, gwRTT []float64
	for id, d := range perReq {
		for _, name := range []string{"client.gateway", "client.replica", "serve.predict_batched", "serve.predict"} {
			if _, ok := d[name]; !ok {
				r.check(false, "request %s has no %s span", id, name)
			}
		}
		gwOver = append(gwOver, d["client.gateway"]-d["client.replica"])
		httpMs = append(httpMs, d["client.replica"]-d["serve.predict_batched"])
		wait = append(wait, d["serve.predict_batched"]-d["serve.predict"])
		gwRTT = append(gwRTT, d["client.gateway"])
	}
	r.set("gateway.overhead_ms", "ms", median(gwOver))
	r.set("serve.http_ms", "ms", median(httpMs))
	r.set("serve.batch_wait_ms", "ms", median(wait))
	r.set("trace.overhead_frac", "ratio", median(gwRTT)/untracedRTT)

	e, _ := f.regs[0].Get(modelName(0))
	for _, lm := range e.LayerMeta() {
		r.set("serve.weights_ms."+lm.Name, "ms", median(ix.selfMs(r, "serve.weights."+lm.Name)))
		r.set("tensor.kernel_ms."+lm.Name, "ms", median(ix.selfMs(r, "tensor.kernel."+lm.Name)))
		// Computed, not measured: multiply-adds and bytes a kernel over
		// this layer's resident form touches for one predict.
		rows, in, out := float64(c.rows), float64(lm.Shape[1]), float64(lm.Shape[0])
		nnz := lm.Density * in * out
		flops, wbytes := 2*rows*in*out, 4*in*out
		if lm.Format == "csr" {
			flops, wbytes = 2*rows*nnz, float64(lm.ResidentBytes)
		}
		r.set("tensor.kernel_flops."+lm.Name, "flop_computed", flops)
		r.set("tensor.kernel_bytes."+lm.Name, "B_computed", wbytes+4*rows*(in+out))
	}
	return nil
}
