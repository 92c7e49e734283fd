package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Set-up is repeated and its median reported, so that one slow boot
// does not decide setup_s. A serve run boots serveSetups+1 daemons: the
// last set-up's serves the open-loop window, one more the closed loop.
const (
	serveSetups = 9
	coldSetups  = 15
)

// loadProcs is the benchmark's own GOMAXPROCS while it drives ecrpqd
// (main sets it first thing). With as many Ps as CPUs, the client's
// idle Ps' threads spin for work on the CPUs the daemon needs: on a
// 2-core host serve-hot's read p50 then moved by ±8% from run to run,
// against ±3% on one P, and was a third slower. The traced run hosts
// the server in-process and gets one P per CPU, as ecrpqd does.
const loadProcs = 1

// coldWarmPasses bounds cold-analytic's warm-up.
const coldWarmPasses = 40

// An open-loop window is invalid, not slow, when the generator itself
// fell behind its schedule or ops were still queued for a connection
// when it ended: its latencies would then depend on the window length.
const (
	maxGenLagP99   = 50 * time.Millisecond
	maxBacklogFrac = 0.02
	minBacklog     = 20
)

// pageCacheNote qualifies the crash-restart check.
const pageCacheNote = "crash-restart kills ecrpqd with SIGKILL; the OS page cache survives, so this is a process-crash test, not a power-loss test"

type bench struct {
	o      options
	spec   workloadSpec
	in     *inputs
	ctx    context.Context
	log    io.Writer
	runDir string

	mu      sync.Mutex
	daemons []*daemon

	// coldWarm is the number of warm-up passes cold-analytic ran; the
	// traced replay runs as many.
	coldWarm int
}

type result struct {
	Stamp      stamp              `json:"stamp"`
	Metrics    map[string]float64 `json:"metrics"`
	Tally      *tally             `json:"tally"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Invalid    string             `json:"invalid,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	SetupS     []float64          `json:"setup_s_samples"`
	// ServeKinds are the daemon's /statz cache-counter deltas over the
	// open-loop window; TracedKinds the same split from the traced run.
	ServeKinds  map[string]uint64 `json:"serve_kinds,omitempty"`
	TracedKinds map[string]uint64 `json:"traced_serve_kinds,omitempty"`
	// TracedReadP50Ms is the traced replay's read p50; against the
	// untraced run's over the same ops (OpenLoopReadP50Ms for the serve
	// workloads, read_p50_ms for cold-analytic) it shows the tracing
	// overhead.
	TracedReadP50Ms   float64 `json:"traced_read_p50_ms,omitempty"`
	OpenLoopReadP50Ms float64 `json:"open_loop_read_p50_ms,omitempty"`
	TraceFile         string  `json:"trace_file,omitempty"`
	// Slices are the load phases' slices (passes for cold-analytic),
	// with their host steal and whether the figures used them.
	Slices map[string][]sliceReport `json:"slices,omitempty"`
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

func (b *bench) run() (*result, error) {
	res := &result{Metrics: map[string]float64{}, Tally: newTally(), Stamp: makeStamp(b.o)}
	b.runDir = filepath.Join(b.o.work, "runs", fmt.Sprintf("%s-seed%d-pid%d", b.o.workload, b.o.seed, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)

	seedRef, err := b.reference(nil)
	if err != nil {
		return nil, err
	}
	if b.o.seed == defaultSeed {
		g, err := readGolden(b.o.golden)
		if err != nil {
			return nil, fmt.Errorf("golden fingerprints: %w", err)
		}
		compareFPs(res, "reference vs committed golden", g[b.o.workload], seedRef)
	}
	if b.spec.rate == 0 {
		err = b.runCold(res, seedRef)
	} else {
		err = b.runServe(res, seedRef)
	}
	if err != nil {
		return nil, err
	}
	if b.o.trace == 1 {
		if err := b.traced(res, seedRef); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	res.Metrics["ok_frac"] = 1 - float64(res.Tally.Failed)/float64(max(1, res.Tally.Attempted))
	if res.Tally.Failed > 0 {
		b.logf("%d of %d ops failed: statuses %v, first bodies %v, transport %d (%s)",
			res.Tally.Failed, res.Tally.Attempted, res.Tally.Statuses, res.Tally.FirstBody, res.Tally.Transport, res.Tally.FirstErr)
	}
	return res, nil
}

// reference evaluates every key from scratch on the seed graph plus
// the given acknowledged writes. The graph is loaded afresh each time
// rather than kept, so the benchmark process holds no large heap while
// it drives load.
func (b *bench) reference(writes []string) ([]string, error) {
	g, err := readGraph(b.in.GraphTxt)
	if err != nil {
		return nil, err
	}
	if err := applyWrites(g, writes); err != nil {
		return nil, err
	}
	fps, err := referenceFingerprints(g, b.in.Keys)
	runtime.GC()
	return fps, err
}

// compareFPs records a mismatch for every key whose fingerprint differs.
func compareFPs(res *result, what string, want, got []string) {
	if len(want) != len(got) {
		res.Mismatches = append(res.Mismatches, fmt.Sprintf("%s: %d fingerprints, want %d", what, len(got), len(want)))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf("%s: key %d: fingerprint %s, want %s", what, i, got[i], want[i]))
		}
	}
}

// start execs ecrpqd and registers it for stopAll.
func (b *bench) start(logPath string, args ...string) (*daemon, error) {
	d, err := startDaemon(b.o.ecrpqd, logPath, args...)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.daemons = append(b.daemons, d)
	b.mu.Unlock()
	return d, nil
}

// stopAll kills every daemon still running; the benchmark never leaves
// a process behind, whatever path it exits by.
func (b *bench) stopAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.daemons {
		select {
		case <-d.done:
		default:
			d.kill()
		}
	}
}

// serveArgs are the daemon flags of a serve workload over dataDir: the
// default flush policy (no per-write fsync; checkpoints fsync) and the
// prepared queries.
func (b *bench) serveArgs(dataDir string) []string {
	args := []string{"-data", dataDir}
	for _, n := range b.in.queryNames() {
		args = append(args, "-query", n+"="+b.in.Queries[n])
	}
	return args
}

// getFPs GETs every key with fresh=1 (no degraded serving) and returns
// the fingerprints ("" for a failed read).
func (b *bench) getFPs(c *client, t *tally) []string {
	out := make([]string, len(b.in.Keys))
	for i, k := range b.in.Keys {
		o := c.do(b.ctx, http.MethodGet, readPath(k, "&fresh=1&limit=10"), "", nil)
		if t.add(o) {
			out[i] = o.q.Fingerprint
		}
	}
	return out
}

// bootServe copies the pristine store and boots ecrpqd on the copy.
// Set-up ends once every working-set key has been answered.
func (b *bench) bootServe(i int, seedRef []string, res *result) (*daemon, string, error) {
	dir := filepath.Join(b.runDir, fmt.Sprintf("setup%d", i))
	store := filepath.Join(dir, "store")
	if err := copyTree(b.in.StoreDir, store); err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	d, err := b.start(filepath.Join(dir, "ecrpqd.log"), b.serveArgs(store)...)
	if err != nil {
		return nil, "", err
	}
	if err := d.waitHealthy(b.ctx); err != nil {
		return nil, "", err
	}
	c := newClient(d.base, 1)
	fps := b.getFPs(c, res.Tally)
	c.close()
	res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	compareFPs(res, fmt.Sprintf("set-up %d vs reference on the seed graph", i), seedRef, fps)
	return d, store, nil
}

// runServe measures a serve workload in two phases over the same op
// stream. The open-loop window runs on the last set-up's daemon over
// nproc connections at the workload's rate; it gives the serve-kind mix,
// the tail latencies and the generator's validity figures. Then a fresh
// daemon replays the stream closed loop over one connection, each op
// sent when the previous one is answered: the window's ops, then
// closedFactor-1 times as many again. That phase gives the gated
// latencies, throughput_ops_s and peak_rss_mb. Each phase's work is
// fixed, so neither phase's store depends on how fast the program was,
// and each is checked against the seed graph plus its own writes.
//
// The gated figures come from the closed loop because on a shared
// 2-core virtual machine an open-loop op at a few percent load mostly
// waits for idle CPUs to wake: at 1000 ops/s serve-hot's read p50 was
// about 0.3 ms against 0.08 ms per op closed loop, and it moved by
// 10-30% from run to run with the host's load. Two closed-loop
// connections on two cores moved by 15-30% with how the client's and
// the daemon's threads happened to share them; one connection held
// within about 5%.
func (b *bench) runServe(res *result, seedRef []string) error {
	conns := runtime.NumCPU()
	var d *daemon
	var store string
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.kill()
		}
		var err error
		if d, store, err = b.bootServe(i, seedRef, res); err != nil {
			return err
		}
	}
	c := newClient(d.base, conns)
	if err := b.warmUp(c, conns, res.Tally); err != nil {
		c.close()
		return err
	}
	before, err := statz(b.ctx, c)
	if err != nil {
		return err
	}
	n := int(b.spec.rate * b.o.seconds)
	stream := newOpStream(b.spec, b.in, b.o.seed, false)
	ops := stream.take(n)
	win := openLoop(b.ctx, c, b.in, ops, b.spec.rate, conns, res.Tally)
	after, err := statz(b.ctx, c)
	if err != nil {
		return err
	}
	res.ServeKinds = kindDeltas(before.Cache, after.Cache)
	if err := b.ctx.Err(); err != nil {
		return err
	}

	// Correctness: the seed graph plus every acknowledged write,
	// evaluated from scratch, against what the daemon serves now.
	finalRef, err := b.reference(win.acked)
	if err != nil {
		return err
	}
	compareFPs(res, "after the open-loop window vs reference", finalRef, b.getFPs(c, res.Tally))
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	c.close()
	if b.spec.name == "serve-churn" {
		if d, err = b.crashRestart(d, store, finalRef, res); err != nil {
			return err
		}
	} else {
		res.Metrics["graph.crash_restart_ms"] = 0
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("ecrpqd shutdown: %w", err)
	}

	d, _, err = b.bootServe(serveSetups, seedRef, res)
	if err != nil {
		return err
	}
	c = newClient(d.base, 1)
	closed := closedLoop(b.ctx, c, b.in, append(ops, stream.take((b.spec.closedFactor-1)*n)...), 1, res.Tally)
	if err := b.ctx.Err(); err != nil {
		return err
	}
	closedRef, err := b.reference(closed.acked)
	if err != nil {
		return err
	}
	compareFPs(res, "after the closed loop vs reference", closedRef, b.getFPs(c, res.Tally))
	c.close()
	closedRSS, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("peak RSS %.1f MB after the open-loop window, %.1f MB after the closed loop", rss, closedRSS))
	if err := d.stop(); err != nil {
		return fmt.Errorf("ecrpqd shutdown: %w", err)
	}

	res.Metrics["setup_s"] = quartile(res.SetupS, 2)
	res.Metrics["read_p50_ms"] = closed.readMs(0.50)
	res.Metrics["write_p50_ms"] = closed.writeMs(0.50)
	res.OpenLoopReadP50Ms = win.readMs(0.50)
	res.Metrics["loadgen.read_p90_ms"] = win.readMs(0.90)
	res.Metrics["loadgen.write_p90_ms"] = win.writeMs(0.90)
	res.Metrics["throughput_ops_s"] = closed.rate()
	res.Metrics["peak_rss_mb"] = closedRSS
	res.Slices = map[string][]sliceReport{"open_loop": win.report(), "closed_loop": closed.report()}
	b.loadgenMetrics(res, win, len(ops))
	return nil
}

// crashRestart kills d with SIGKILL, restarts ecrpqd on the same store
// and requires the reference answers from the restarted daemon.
func (b *bench) crashRestart(d *daemon, store string, finalRef []string, res *result) (*daemon, error) {
	d.kill()
	t0 := time.Now()
	d, err := b.start(filepath.Join(b.runDir, "restart.log"), b.serveArgs(store)...)
	if err != nil {
		return nil, err
	}
	if err := d.waitHealthy(b.ctx); err != nil {
		return nil, err
	}
	res.Metrics["graph.crash_restart_ms"] = ms(time.Since(t0))
	c := newClient(d.base, 1)
	defer c.close()
	compareFPs(res, "after kill -9 and restart vs reference", finalRef, b.getFPs(c, res.Tally))
	res.Notes = append(res.Notes, pageCacheNote)
	b.logf("%s", pageCacheNote)
	return d, nil
}

// loadgenMetrics records the generator's own validity figures and marks
// the run invalid when they pass the bounds above.
func (b *bench) loadgenMetrics(res *result, win *phase, scheduled int) {
	res.Metrics["loadgen.send_lag_p50_ms"] = ms(quantile(win.lags, 0.50))
	res.Metrics["loadgen.send_lag_p99_ms"] = ms(quantile(win.lags, 0.99))
	res.Metrics["loadgen.backlog_end"] = float64(win.backlog)
	res.Metrics["loadgen.read_p99_ms"] = ms(quantile(win.allReads(), 0.99))
	res.Metrics["loadgen.read_max_ms"] = ms(quantile(win.allReads(), 1))
	if lag := quantile(win.genLags, 0.99); lag > maxGenLagP99 {
		res.Invalid = fmt.Sprintf("generator lag p99 %v > %v", lag, maxGenLagP99)
	}
	if limit := max(minBacklog, int(maxBacklogFrac*float64(scheduled))); win.backlog > limit {
		res.Invalid = fmt.Sprintf("%d ops still queued at window end (bound %d): the rate exceeds capacity", win.backlog, limit)
	}
}

// warmUp sends the read mix open loop at the workload's rate in half
// second slices until the result cache's entry count and bytes stop
// growing (at most 10 slices). Warm-up has no writes, so the state the
// timed window starts from does not depend on how long it took.
func (b *bench) warmUp(c *client, conns int, t *tally) error {
	s := newOpStream(b.spec, b.in, b.o.seed+1, true)
	prev, err := statz(b.ctx, c)
	if err != nil {
		return err
	}
	for slice := 0; slice < 10; slice++ {
		openLoop(b.ctx, c, b.in, s.take(int(b.spec.rate/2)), b.spec.rate, conns, t)
		cur, err := statz(b.ctx, c)
		if err != nil {
			return err
		}
		if slice > 0 && cur.Cache.Entries == prev.Cache.Entries && cur.Cache.Bytes == prev.Cache.Bytes {
			return nil
		}
		prev = cur
	}
	b.logf("warm-up: cache still growing after 5s; starting the window anyway")
	return nil
}

func statz(ctx context.Context, c *client) (server.Stats, error) {
	var st server.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/statz", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, fmt.Errorf("statz: %w", err)
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (b *bench) runCold(res *result, seedRef []string) error {
	var d *daemon
	for i := 0; i < coldSetups; i++ {
		if d != nil {
			d.kill()
		}
		t0 := time.Now()
		var err error
		if d, err = b.start(filepath.Join(b.runDir, fmt.Sprintf("setup%d.log", i)), "-graph", b.in.GraphTxt); err != nil {
			return err
		}
		if err := d.waitHealthy(b.ctx); err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = quartile(res.SetupS, 2)
	c := newClient(d.base, 1)
	defer c.close()

	// One analyst, closed loop: register an instance, run it, check it.
	// A few instances warm up; then whole passes over the batch are
	// timed, so every run does the same work. Each pass is one slice:
	// passes hold the same instances, so they differ only by noise. A
	// read is the PUT plus the GET, a write the PUT alone.
	runOne := func(i int) (put, total time.Duration, ok bool) {
		k := b.in.Keys[i]
		t0 := time.Now()
		if !res.Tally.add(c.do(b.ctx, http.MethodPut, "/queries/"+k.Query, k.Text, nil)) {
			return 0, 0, false
		}
		put = time.Since(t0)
		o := c.do(b.ctx, http.MethodGet, readPath(k, ""), "", nil)
		if !res.Tally.add(o) {
			return 0, 0, false
		}
		if o.q.Fingerprint != seedRef[i] {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf("instance %d (%s bind x=%s): fingerprint %s, want %s", i, k.Text, k.Node, o.q.Fingerprint, seedRef[i]))
		}
		return put, time.Since(t0), true
	}
	// Warm-up: whole untimed passes until the result cache has begun to
	// evict. Until then every answer adds to the daemon's heap and the
	// reads slow down pass by pass (from 1.4 to 1.9 ms p50 over the
	// first ~2.5k instances on a 2-core host); afterwards they hold.
	for b.coldWarm = 0; b.coldWarm < coldWarmPasses; {
		for i := range b.in.Keys {
			runOne(i)
		}
		b.coldWarm++
		st, err := statz(b.ctx, c)
		if err != nil {
			return err
		}
		if st.Cache.Evictions > 0 {
			break
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("warm-up: %d untimed passes", b.coldWarm))
	before, err := statz(b.ctx, c)
	if err != nil {
		return err
	}
	passes := coldPasses(b.o.seconds, len(b.in.Keys))
	reads := make([][]time.Duration, passes)
	puts := make([][]time.Duration, passes)
	spans := make([]time.Duration, passes)
	steal := make([]uint64, passes)
	share := make([]float64, passes)
	for p := 0; p < passes && b.ctx.Err() == nil; p++ {
		s0, t0 := stealTicks(), time.Now()
		for i := range b.in.Keys {
			if put, total, ok := runOne(i); ok {
				reads[p], puts[p] = append(reads[p], total), append(puts[p], put)
			}
		}
		spans[p], steal[p] = time.Since(t0), stealTicks()-s0
		share[p] = stealShare(steal[p], spans[p])
	}
	after, err := statz(b.ctx, c)
	if err != nil {
		return err
	}
	res.ServeKinds = kindDeltas(before.Cache, after.Cache)
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("ecrpqd shutdown: %w", err)
	}
	// Each pass is a slice of the phase (see sliceDur), and the figures
	// come from the calm passes.
	calm := calmest(share)
	var calmReads, calmPuts []time.Duration
	var n int
	var span time.Duration
	for _, p := range calm {
		calmReads, calmPuts = append(calmReads, reads[p]...), append(calmPuts, puts[p]...)
		n, span = n+len(reads[p]), span+spans[p]
	}
	res.Slices = map[string][]sliceReport{"passes": make([]sliceReport, passes)}
	for p := range passes {
		res.Slices["passes"][p] = sliceReport{Ops: len(reads[p]), ReadP50Ms: ms(quantile(reads[p], 0.5)), Steal: steal[p]}
	}
	for _, p := range calm {
		res.Slices["passes"][p].Calm = true
	}
	res.Metrics["read_p50_ms"] = ms(quantile(calmReads, 0.50))
	res.Metrics["loadgen.read_p90_ms"] = ms(quantile(calmReads, 0.90))
	res.Metrics["write_p50_ms"] = ms(quantile(calmPuts, 0.50))
	res.Metrics["loadgen.write_p90_ms"] = ms(quantile(calmPuts, 0.90))
	res.Metrics["throughput_ops_s"] = float64(n) / span.Seconds()
	res.Metrics["peak_rss_mb"] = rss
	res.Metrics["graph.crash_restart_ms"] = 0
	// A closed loop has no schedule to lag behind.
	res.Metrics["loadgen.send_lag_p50_ms"] = 0
	res.Metrics["loadgen.send_lag_p99_ms"] = 0
	res.Metrics["loadgen.backlog_end"] = 0
	var all []time.Duration
	for _, r := range reads {
		all = append(all, r...)
	}
	res.Metrics["loadgen.read_p99_ms"] = ms(quantile(all, 0.99))
	res.Metrics["loadgen.read_max_ms"] = ms(quantile(all, 1))
	return nil
}

// stamp attributes a result to its machine, toolchain, code and input.
type stamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       int     `json:"trace"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"` // ecrpqd's and the traced run's
	LoadProcs   int     `json:"loadgen_gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	FlushPolicy string  `json:"flush_policy"`
}

func makeStamp(o options) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: defaultProcs, LoadProcs: loadProcs,
		GoVersion: runtime.Version(), Commit: commit(),
		FlushPolicy: "ecrpqd default: WAL written to the kernel per write, no per-write fsync; checkpoints fsync",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git HEAD of the working directory, or, in a checkout
// without git metadata, a digest of its Go sources and go.mod files.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:8])
}

func (b *bench) writeReport(res *result) error {
	dir := filepath.Join(b.o.work, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.o.workload, b.o.seed, b.o.trace))
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
