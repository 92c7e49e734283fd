package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/qcache"
	"repro/internal/server"
)

// span is one traced interval. Spans of one request share Req; Parent
// is the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	// Derived marks a span whose length is reported by the program
	// (the response's elapsed_ns) rather than timed by the benchmark;
	// it is placed at its parent's start.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, req int, start, end time.Time, derived bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Derived: derived})
	return id
}

// reserve allocates a span id for a parent whose end is not known yet;
// finish fills it in.
func (t *tracer) reserve(name string, parent, req int, start time.Time) int {
	return t.add(name, parent, req, start, start, false)
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request headers that tie the server-side handler span to the
// client-side request span.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// handlerSpan is what the handler wrapper reports per request.
type handlerSpan struct {
	id    int
	start time.Time
	dur   time.Duration
}

// tracedRun is the in-process host: server.New over the same store,
// behind a loopback HTTP server, driven over one connection so that
// counter deltas around a request belong to that request.
type tracedRun struct {
	b       *bench
	tr      *tracer
	db      *graph.DB
	cache   *qcache.Cache
	srv     *server.Server
	c       *client
	handled chan handlerSpan
	req     int

	reads                        []readSample
	readLats                     []time.Duration
	compiles, applies, snapshots []time.Duration
	checkpointSpans              []time.Duration
	deltaEdges                   []float64
	walBytes, walEdges           int64
	heapPeak                     uint64
	mismatches                   []string
}

// readSample is one traced read.
type readSample struct {
	kind            string
	handler, eval   time.Duration
	bytes, answers  int
	levels, fanouts uint64
	alloc           uint64
}

func (b *bench) traced(res *result, seedRef []string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(defaultProcs))
	t := &tracedRun{b: b, tr: &tracer{t0: time.Now()}, handled: make(chan handlerSpan, 1)}
	if b.spec.rate == 0 {
		f, err := os.Open(b.in.GraphTxt)
		if err != nil {
			return err
		}
		t0 := time.Now()
		t.db, err = graph.ParseText(f)
		f.Close()
		if err != nil {
			return err
		}
		res.Metrics["graph.load_ms"] = ms(time.Since(t0))
		res.Metrics["graph.recover_ms"] = 0
		res.Metrics["segment.bytes_per_edge"] = 0
		t.tr.add("graph.load", 0, 0, t0, time.Now(), false)
	} else {
		store := filepath.Join(b.runDir, "traced", "store")
		if err := copyTree(b.in.StoreDir, store); err != nil {
			return err
		}
		segBytes, err := newestSegmentBytes(store)
		if err != nil {
			return err
		}
		t0 := time.Now()
		t.db, err = graph.OpenDir(store)
		if err != nil {
			return err
		}
		defer t.db.Close()
		res.Metrics["graph.recover_ms"] = ms(time.Since(t0))
		res.Metrics["graph.load_ms"] = 0
		t.tr.add("graph.recover", 0, 0, t0, time.Now(), false)
		// The segment holds the checkpointed base, without the WAL tail.
		base := t.db.Snapshot().BaseEdges()
		res.Metrics["segment.bytes_per_edge"] = float64(segBytes) / float64(max(1, base))
	}

	// The Config ecrpqd builds from its flag defaults.
	t.cache = qcache.New(64 << 20)
	t.srv = server.New(server.Config{
		DB: t.db, Env: ecrpq.Env{Sigma: t.db.Alphabet()}, Cache: t.cache,
		DefaultTimeout: 2 * time.Second, MaxTimeout: 30 * time.Second, MaxStaleLag: 8,
	})
	for _, n := range b.in.queryNames() {
		if err := t.register(0, 0, n, b.in.Queries[n]); err != nil {
			return err
		}
	}
	h := t.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.Atoi(r.Header.Get(hdrReq))
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := t.tr.add("server.handler", parent, req, t0, end, false)
		t.handled <- handlerSpan{id: id, start: t0, dur: end.Sub(t0)}
	}))
	defer ts.Close()
	t.c = newClient(ts.URL, 1)
	defer t.c.close()

	if b.spec.rate == 0 {
		t.replayCold(res, seedRef)
	} else {
		// Fill the cache like the daemon's set-up, then replay the
		// daemon run's window: same stream, same schedule.
		for _, k := range b.in.Keys {
			t.read(0, k, "&fresh=1&limit=10")
		}
		t.reads, t.snapshots, t.deltaEdges = nil, nil, nil
		ops := newOpStream(b.spec, b.in, b.o.seed, false).take(int(b.spec.rate * b.o.seconds))
		if err := t.replayServe(ops, res); err != nil {
			return err
		}
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	res.Mismatches = append(res.Mismatches, t.mismatches...)
	t.layerMetrics(res)
	res.TracedReadP50Ms = ms(quantile(t.readLats, 0.5))
	dir := filepath.Join(b.o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.o.workload, b.o.seed))
	untraced := res.OpenLoopReadP50Ms
	if b.spec.rate == 0 {
		untraced = res.Metrics["read_p50_ms"]
	}
	b.logf("traced run: read p50 %.4f ms traced vs %.4f ms untraced; serve kinds traced %v vs untraced %v; spans in %s",
		res.TracedReadP50Ms, untraced, res.TracedKinds, res.ServeKinds, res.TraceFile)
	return t.tr.write(res.TraceFile)
}

func newestSegmentBytes(dir string) (int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		return 0, fmt.Errorf("no segment in %s", dir)
	}
	sort.Strings(segs)
	st, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (t *tracedRun) register(parent, req int, name, text string) error {
	t0 := time.Now()
	err := t.srv.Register(name, text)
	end := time.Now()
	t.tr.add("plan.compile", parent, req, t0, end, false)
	t.compiles = append(t.compiles, end.Sub(t0))
	return err
}

// read GETs k through the in-process server. Just before, it takes the
// store snapshot the handler would take, so compactions and their
// checkpoints land in the graph.snapshot span.
func (t *tracedRun) read(parent int, k key, params string) outcome {
	t.req++
	req := t.req
	root := t.tr.reserve("read", parent, req, time.Now())
	durable := t.db.Durable()
	var ck0 uint64
	if durable {
		ck0 = t.db.DurableStats().Checkpoints
	}
	s0 := time.Now()
	snap := t.db.Snapshot()
	s1 := time.Now()
	t.tr.add("graph.snapshot", root, req, s0, s1, false)
	t.snapshots = append(t.snapshots, s1.Sub(s0))
	t.deltaEdges = append(t.deltaEdges, float64(snap.DeltaEdges()))
	if durable && t.db.DurableStats().Checkpoints > ck0 {
		t.tr.add("graph.checkpoint", root, req, s0, s1, false)
		t.checkpointSpans = append(t.checkpointSpans, s1.Sub(s0))
	}

	cs0 := t.cache.Stats()
	_, lv0, _, fo0 := ecrpq.BFSParallelStats()
	a0 := heapAllocs()
	hdr := http.Header{hdrReq: {strconv.Itoa(req)}, hdrSpan: {strconv.Itoa(root)}}
	o := t.c.do(t.b.ctx, http.MethodGet, readPath(k, params), "", hdr)
	hs := <-t.handled
	a1 := heapAllocs()
	_, lv1, _, fo1 := ecrpq.BFSParallelStats()
	cs1 := t.cache.Stats()
	t.tr.finish(root, time.Now())
	if !o.ok() {
		t.mismatches = append(t.mismatches, fmt.Sprintf("traced read %s bind x=%s failed: %d %v %s", k.Query, k.Node, o.status, o.err, o.body))
		return o
	}
	eval := time.Duration(o.q.ElapsedNs)
	t.tr.add("ecrpq.eval", hs.id, req, hs.start, hs.start.Add(eval), true)
	t.reads = append(t.reads, readSample{
		kind: kindOf(cs0, cs1), handler: hs.dur, eval: eval,
		bytes: o.bytes, answers: o.q.Count,
		levels: lv1 - lv0, fanouts: fo1 - fo0, alloc: a1 - a0,
	})
	t.heapPeak = max(t.heapPeak, heapObjects())
	return o
}

// write applies a write's lines with graph.ApplyTextLine, the call
// POST /write makes per line.
func (t *tracedRun) write(body string) error {
	t.req++
	req := t.req
	root := t.tr.reserve("write", 0, req, time.Now())
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		w0 := t.db.DurableStats().WALBytes
		t0 := time.Now()
		err := graph.ApplyTextLine(t.db, line)
		end := time.Now()
		if err != nil {
			return err
		}
		t.tr.add("graph.apply", root, req, t0, end, false)
		t.applies = append(t.applies, end.Sub(t0))
		t.walBytes += t.db.DurableStats().WALBytes - w0
		t.walEdges++
	}
	t.tr.finish(root, time.Now())
	t.heapPeak = max(t.heapPeak, heapObjects())
	return nil
}

// replayServe replays ops at the daemon run's schedule over the one
// connection; an op due while the previous one runs is sent late.
func (t *tracedRun) replayServe(ops []op, res *result) error {
	cs0 := t.cache.Stats()
	gc0 := gcSample()
	start := time.Now()
	interval := float64(time.Second) / t.b.spec.rate
	for i, o := range ops {
		due := start.Add(time.Duration(float64(i) * interval))
		sleepUntil(due)
		if t.b.ctx.Err() != nil {
			break
		}
		if o.write {
			if err := t.write(o.body); err != nil {
				return err
			}
			continue
		}
		t.read(0, t.b.in.Keys[o.key], "&limit=10")
		t.readLats = append(t.readLats, time.Since(due))
	}
	t.windowMetrics(res, cs0, gc0, len(ops))
	return nil
}

// replayCold is the analyst session: register, run and check the same
// instances as the daemon run, in the same order.
func (t *tracedRun) replayCold(res *result, seedRef []string) {
	run := func(order []int) int {
		n := 0
		for _, i := range order {
			if t.b.ctx.Err() != nil {
				break
			}
			n++
			k := t.b.in.Keys[i]
			t0 := time.Now()
			root := t.tr.reserve("analyst-op", 0, t.req+1, t0)
			if err := t.register(root, t.req+1, k.Query, k.Text); err != nil {
				t.mismatches = append(t.mismatches, fmt.Sprintf("traced register %q: %v", k.Text, err))
				continue
			}
			o := t.read(root, k, "")
			t.tr.finish(root, time.Now())
			t.readLats = append(t.readLats, time.Since(t0))
			if o.ok() && o.q.Fingerprint != seedRef[i] {
				t.mismatches = append(t.mismatches, fmt.Sprintf("traced instance %d: fingerprint %s, want %s", i, o.q.Fingerprint, seedRef[i]))
			}
		}
		return n
	}
	passes := func(n int) []int {
		var order []int
		for ; n > 0; n-- {
			for i := range t.b.in.Keys {
				order = append(order, i)
			}
		}
		return order
	}
	// The same warm-up as the daemon run, then the timed passes; the
	// metrics cover the timed passes (the spans cover both).
	var warm []int
	for i := range coldTemplates {
		warm = append(warm, i)
	}
	run(append(warm, passes(t.b.coldWarm)...))
	t.reads, t.readLats, t.compiles, t.snapshots = nil, nil, nil, nil
	cs0 := t.cache.Stats()
	gc0 := gcSample()
	n := run(passes(coldPasses(t.b.o.seconds, len(t.b.in.Keys))))
	t.windowMetrics(res, cs0, gc0, n)
}

func kindOf(a, b qcache.Stats) string {
	switch {
	case b.Hits > a.Hits:
		return "hit"
	case b.Waits > a.Waits:
		return "wait"
	case b.Revalidated > a.Revalidated:
		return "revalidated"
	case b.Incremental > a.Incremental:
		return "incremental"
	case b.Misses > a.Misses:
		return "compute"
	}
	return "none"
}

// kindDeltas is the cache counters' movement between two snapshots.
func kindDeltas(a, b qcache.Stats) map[string]uint64 {
	return map[string]uint64{
		"hit": b.Hits - a.Hits, "wait": b.Waits - a.Waits,
		"revalidated": b.Revalidated - a.Revalidated, "incremental": b.Incremental - a.Incremental,
		"compute": b.Misses - a.Misses, "evictions": b.Evictions - a.Evictions,
		"dead_dropped": b.DeadDropped - a.DeadDropped,
	}
}

// windowMetrics records the cache and runtime counters over the
// replayed window.
func (t *tracedRun) windowMetrics(res *result, cs0 qcache.Stats, gc0 gcCounters, ops int) {
	res.TracedKinds = kindDeltas(cs0, t.cache.Stats())
	gc1 := gcSample()
	kops := float64(max(1, ops)) / 1000
	res.Metrics["qcache.evictions_per_kop"] = float64(res.TracedKinds["evictions"]) / kops
	res.Metrics["qcache.dead_dropped_per_kop"] = float64(res.TracedKinds["dead_dropped"]) / kops
	res.Metrics["runtime.gc_cycles_per_kop"] = float64(gc1.cycles-gc0.cycles) / kops
	res.Metrics["runtime.gc_pause_p99_us"] = pauseQuantile(gc0.pauses, gc1.pauses, 0.99) * 1e6
}

// layerMetrics turns the traced samples into the per-layer metrics.
func (t *tracedRun) layerMetrics(res *result) {
	m := res.Metrics
	var self, hit, compute, incr, reval []time.Duration
	var respBytes, answers, levels, fanouts, alloc float64
	kinds := map[string]int{}
	for _, r := range t.reads {
		kinds[r.kind]++
		self = append(self, r.handler-r.eval)
		respBytes += float64(r.bytes)
		switch r.kind {
		case "hit":
			hit = append(hit, r.eval)
		case "compute":
			compute = append(compute, r.eval)
			answers += float64(r.answers)
			levels += float64(r.levels)
			fanouts += float64(r.fanouts)
			alloc += float64(r.alloc)
		case "incremental":
			incr = append(incr, r.eval)
		case "revalidated":
			reval = append(reval, r.eval)
		}
	}
	n := float64(max(1, len(t.reads)))
	nc := float64(max(1, len(compute)))
	m["server.read_self_us_p50"] = us(quantile(self, 0.5))
	m["server.resp_kb_per_read"] = respBytes / 1024 / n
	m["plan.compile_us_p50"] = us(quantile(t.compiles, 0.5))
	m["plan.compile_us_p90"] = us(quantile(t.compiles, 0.9))
	for _, k := range []string{"hit", "wait", "revalidated", "incremental", "compute"} {
		m["qcache."+k+"_frac"] = float64(kinds[k]) / n
	}
	m["qcache.hit_us_p50"] = us(quantile(hit, 0.5))
	m["ecrpq.compute_ms_p50"] = ms(quantile(compute, 0.5))
	m["ecrpq.compute_ms_p90"] = ms(quantile(compute, 0.9))
	m["ecrpq.incremental_us_p50"] = us(quantile(incr, 0.5))
	m["ecrpq.revalidate_us_p50"] = us(quantile(reval, 0.5))
	m["ecrpq.answers_per_compute"] = answers / nc
	m["ecrpq.par_levels_per_compute"] = levels / nc
	m["ecrpq.par_fanouts_per_compute"] = fanouts / nc
	m["ecrpq.alloc_mb_per_compute"] = alloc / nc / (1 << 20)
	m["graph.snapshot_us_p50"] = us(quantile(t.snapshots, 0.5))
	m["graph.snapshot_ms_max"] = ms(quantile(t.snapshots, 1))
	m["graph.delta_edges_p50"] = quartile(t.deltaEdges, 2)
	m["graph.apply_us_p50"] = us(quantile(t.applies, 0.5))
	m["graph.checkpoints"] = float64(len(t.checkpointSpans))
	m["graph.checkpoint_ms_p50"] = ms(quantile(t.checkpointSpans, 0.5))
	m["graph.wal_bytes_per_edge"] = float64(t.walBytes) / float64(max(1, t.walEdges))
	m["runtime.heap_peak_mb"] = float64(t.heapPeak) / (1 << 20)
}

// Runtime counters, read through runtime/metrics.
const (
	mAllocs  = "/gc/heap/allocs:bytes"
	mObjects = "/memory/classes/heap/objects:bytes"
	mCycles  = "/gc/cycles/total:gc-cycles"
	mPauses  = "/sched/pauses/total/gc:seconds"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func heapAllocs() uint64  { return readMetric(mAllocs).Uint64() }
func heapObjects() uint64 { return readMetric(mObjects).Uint64() }

type gcCounters struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

func gcSample() gcCounters {
	s := []metrics.Sample{{Name: mCycles}, {Name: mPauses}}
	metrics.Read(s)
	return gcCounters{cycles: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// pauseQuantile is the q-quantile of the pauses recorded between two
// histogram reads, as the upper bound of its bucket (0 for none).
func pauseQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			up := b.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = b.Buckets[i]
			}
			return up
		}
	}
	return 0
}
