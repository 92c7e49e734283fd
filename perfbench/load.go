package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one operation of a serve workload's stream.
type op struct {
	write bool
	key   int    // read: index into inputs.Keys
	body  string // write: graph text lines
}

// opStream is a workload's seeded operation stream: Zipf-skewed reads
// over the keys, interleaved with writes of fresh edges from existing
// nodes, to existing nodes or, where the inputs have a leaf pool, to
// leaves.
type opStream struct {
	r        *rand.Rand
	keys     *rand.Zipf
	sources  *rand.Zipf
	spec     workloadSpec
	in       *inputs
	readOnly bool
	leaf     int // writes so far into the leaf pool
}

func newOpStream(spec workloadSpec, in *inputs, seed int64, readOnly bool) *opStream {
	r := rand.New(rand.NewSource(seed))
	return &opStream{
		r:    r,
		keys: rand.NewZipf(r, spec.zipfS, spec.zipfV, uint64(len(in.Keys)-1)),
		// Written edges have Zipf-skewed sources, like the seed graph's
		// (workload.LabelRich), so a store that grows under churn stays
		// as sparse away from its hubs as it began.
		sources:  rand.NewZipf(r, 1.4, 4, uint64(in.Nodes-1)),
		spec:     spec,
		in:       in,
		readOnly: readOnly,
	}
}

func (s *opStream) next() op {
	if s.readOnly || s.r.Float64() >= s.spec.writeFrac {
		return op{key: int(s.keys.Uint64())}
	}
	var b strings.Builder
	labels := []rune(s.in.Labels)
	for i := 0; i < s.spec.writeEdges; i++ {
		to := s.r.Intn(s.in.Nodes)
		if s.in.Leaves > 0 {
			// The pool's nodes are taken in turn and never get an
			// out-edge, so a write adds no cycle and no path longer
			// than one edge past the seed graph.
			to = s.in.LeafStart + s.leaf%s.in.Leaves
			s.leaf++
		}
		fmt.Fprintf(&b, "edge n%d %c n%d\n", s.sources.Uint64(), labels[s.r.Intn(len(labels))], to)
	}
	return op{write: true, body: b.String()}
}

func (s *opStream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// client speaks ecrpqd's HTTP API over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// queryResp is the part of a GET /query response the benchmark reads.
type queryResp struct {
	Count       int    `json:"count"`
	Fingerprint string `json:"fingerprint"`
	ElapsedNs   int64  `json:"elapsed_ns"`
}

// outcome is one HTTP exchange: a status (0 on transport failure), the
// body length, and the decoded query response of a successful read.
type outcome struct {
	status int
	err    error
	body   string // kept only for non-2xx
	bytes  int
	q      queryResp
}

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

func (c *client) do(ctx context.Context, method, path, body string, hdr http.Header) outcome {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return outcome{err: err}
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	o := outcome{status: resp.StatusCode, err: err, bytes: len(b)}
	if err != nil {
		return o
	}
	if !o.ok() {
		o.body = string(b)
	} else if method == http.MethodGet && strings.HasPrefix(path, "/query/") {
		if err := json.Unmarshal(b, &o.q); err != nil {
			o.err = fmt.Errorf("decode query response: %w", err)
		}
	}
	return o
}

// readPath is the GET /query URL of k; extra carries more parameters.
func readPath(k key, extra string) string {
	return "/query/" + k.Query + "?bind=" + url.QueryEscape("x="+k.Node) + extra
}

// tally counts every attempted op and keeps the first body of each
// failing status.
type tally struct {
	mu        sync.Mutex
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Statuses  map[int]int    `json:"statuses"`
	FirstBody map[int]string `json:"first_body,omitempty"`
	Transport int            `json:"transport_errors"`
	FirstErr  string         `json:"first_transport_error,omitempty"`
}

func newTally() *tally { return &tally{Statuses: map[int]int{}, FirstBody: map[int]string{}} }

func (t *tally) add(o outcome) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Attempted++
	if o.status != 0 {
		t.Statuses[o.status]++
	}
	if o.ok() {
		return true
	}
	t.Failed++
	if o.status == 0 || o.err != nil {
		t.Transport++
		if t.FirstErr == "" && o.err != nil {
			t.FirstErr = o.err.Error()
		}
	} else if _, seen := t.FirstBody[o.status]; !seen {
		t.FirstBody[o.status] = strings.TrimSpace(o.body)
	}
	return false
}

// A phase is split by time into slices of sliceDur, and its figures
// come from its calm slices: those in which the host's steal time (time
// the hypervisor gave a CPU of this machine to another tenant while it
// had work) was low (see calmest). Contention on a shared host comes in
// bursts and only ever adds latency and takes throughput; steal
// measures it from outside the program, so the choice of slices does
// not depend on the program's speed, and a change to the program moves
// every slice. On a quiet host every slice is calm.
const sliceDur = 500 * time.Millisecond

// slice holds the ops of one sliceDur of a phase.
type slice struct {
	reads, writes []time.Duration
	done          int // successful ops
}

// phase collects one load phase's latencies and acknowledged writes.
type phase struct {
	mu      sync.Mutex
	t0, end time.Time
	slices  []slice
	steal   *stealSampler
	warm    int             // leading slices left out of the figures
	lags    []time.Duration // send time minus due time
	genLags []time.Duration // hand-out time minus due time: the generator's own lateness
	acked   []string
	backlog int
}

func newPhase() *phase {
	p := &phase{t0: time.Now()}
	p.steal = startSteal(p.t0)
	return p
}

// finish ends the phase once its last op has completed.
func (p *phase) finish() {
	p.end = time.Now()
	p.steal.stop()
}

// record files an op that took lat and was sent lag after it was due,
// in the slice of time at: its due time in an open loop, its
// completion in a closed one.
func (p *phase) record(at time.Time, o op, ok bool, lat, lag time.Duration) {
	s := max(0, int(at.Sub(p.t0)/sliceDur))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lags = append(p.lags, lag)
	if !ok {
		return
	}
	for len(p.slices) <= s {
		p.slices = append(p.slices, slice{})
	}
	sl := &p.slices[s]
	sl.done++
	if o.write {
		sl.writes = append(sl.writes, lat)
		p.acked = append(p.acked, o.body)
	} else {
		sl.reads = append(sl.reads, lat)
	}
}

// span is how much of slice k the phase lasted.
func (p *phase) span(k int) time.Duration {
	lo := p.t0.Add(time.Duration(k) * sliceDur)
	hi := lo.Add(sliceDur)
	if p.end.Before(hi) {
		hi = p.end
	}
	return hi.Sub(lo)
}

// calm returns the phase's calm slices. The first warm slices and a
// last slice shorter than half of sliceDur are left out, unless no
// other slice is left.
func (p *phase) calm() []int {
	var idx []int
	var steal []float64
	for k := range p.slices {
		if k < p.warm && k < len(p.slices)-1 {
			continue
		}
		if p.span(k) >= sliceDur/2 || len(p.slices) == 1 {
			idx = append(idx, k)
			steal = append(steal, stealShare(p.steal.of(k), p.span(k)))
		}
	}
	var out []int
	for _, i := range calmest(steal) {
		out = append(out, idx[i])
	}
	return out
}

// calmSteal is the steal share at or below which a slice is calm
// whatever the other slices' steal: /proc/stat counts steal in 10 ms
// ticks, so a 2-CPU half-second slice with one tick of it lost 1%.
const calmSteal = 0.02

// calmGroup is the number of consecutive slices among which calmest
// picks the calmest. Picking within each group of a few slices, rather
// than over the whole phase, spreads the picks over the phase: a serve
// phase's store grows as it runs, so picks bunched at its start or end
// would move its figures.
const calmGroup = 4

// calmest returns, in order, the indices of the steal shares that are
// the lowest of their group of calmGroup consecutive ones, or at most
// calmSteal.
func calmest(shares []float64) []int {
	var out []int
	for lo := 0; lo < len(shares); lo += calmGroup {
		g := shares[lo:min(lo+calmGroup, len(shares))]
		cut := max(slices.Min(g), calmSteal)
		for i, v := range g {
			if v <= cut {
				out = append(out, lo+i)
			}
		}
	}
	return out
}

// stealShare is the share of this machine's CPU time over d that the
// host gave to other tenants, from a steal delta in USER_HZ ticks
// (100 a second on Linux).
func stealShare(ticks uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ticks) / (100 * d.Seconds() * float64(runtime.NumCPU()))
}

// readMs and writeMs are the q-quantiles, in ms, of the latencies
// pooled over the calm slices.
func (p *phase) readMs(q float64) float64 {
	var ds []time.Duration
	for _, k := range p.calm() {
		ds = append(ds, p.slices[k].reads...)
	}
	return ms(quantile(ds, q))
}

func (p *phase) writeMs(q float64) float64 {
	var ds []time.Duration
	for _, k := range p.calm() {
		ds = append(ds, p.slices[k].writes...)
	}
	return ms(quantile(ds, q))
}

// rate is successful ops per second over the calm slices.
func (p *phase) rate() float64 {
	var n int
	var d time.Duration
	for _, k := range p.calm() {
		n, d = n+p.slices[k].done, d+p.span(k)
	}
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// allReads pools every slice's read latencies.
func (p *phase) allReads() []time.Duration {
	var out []time.Duration
	for _, sl := range p.slices {
		out = append(out, sl.reads...)
	}
	return out
}

// sliceReport is one slice of a phase in the report.
type sliceReport struct {
	Ops       int     `json:"ops"`
	ReadP50Ms float64 `json:"read_p50_ms"`
	Steal     uint64  `json:"steal_ticks"`
	Calm      bool    `json:"calm"`
}

// report lists the phase's slices for the report.
func (p *phase) report() []sliceReport {
	out := make([]sliceReport, len(p.slices))
	for k, sl := range p.slices {
		out[k] = sliceReport{Ops: sl.done, ReadP50Ms: ms(quantile(sl.reads, 0.5)), Steal: p.steal.of(k)}
	}
	for _, k := range p.calm() {
		out[k].Calm = true
	}
	return out
}

// stealTicks is the host's steal time summed over this machine's CPUs
// so far, in USER_HZ ticks, from /proc/stat; 0 where it is not kept.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// stealSampler reads stealTicks at every slice boundary of a phase.
type stealSampler struct {
	t0   time.Time
	mu   sync.Mutex
	at   []uint64 // at[k]: steal ticks at t0 + k·sliceDur
	last uint64   // at the phase's end
	quit chan struct{}
	done chan struct{}
}

func startSteal(t0 time.Time) *stealSampler {
	s := &stealSampler{t0: t0, at: []uint64{stealTicks()}, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for k := 1; ; k++ {
			t := time.NewTimer(time.Until(t0.Add(time.Duration(k) * sliceDur)))
			select {
			case <-s.quit:
				t.Stop()
				return
			case <-t.C:
			}
			v := stealTicks()
			s.mu.Lock()
			s.at = append(s.at, v)
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *stealSampler) stop() {
	close(s.quit)
	<-s.done
	s.last = stealTicks()
}

// of is the steal during slice k (up to the phase's end for the last).
func (s *stealSampler) of(k int) uint64 {
	if k >= len(s.at) {
		return 0
	}
	hi := s.last
	if k+1 < len(s.at) {
		hi = s.at[k+1]
	}
	return hi - s.at[k]
}

// runOp issues one serve op and tallies it.
func runOp(ctx context.Context, c *client, in *inputs, o op, t *tally) bool {
	var out outcome
	if o.write {
		out = c.do(ctx, http.MethodPost, "/write", o.body, nil)
	} else {
		out = c.do(ctx, http.MethodGet, readPath(in.Keys[o.key], "&limit=10"), "", nil)
	}
	return t.add(out)
}

// openLoop sends ops[i] at start+i/rate over conns connections, each
// connection taking the next due op when free. Latency is timed from
// the op's due time, so a stall also charges the ops queued behind it;
// lag is how late the op was actually sent. Ops still queued when the
// window ends are not sent; their count is the backlog.
func openLoop(ctx context.Context, c *client, in *inputs, ops []op, rate float64, conns int, t *tally) *phase {
	p := newPhase()
	type due struct {
		o  op
		at time.Time
	}
	// Buffered for every op of the window, so the generator never
	// blocks: ops it cannot hand out wait here as the backlog.
	ch := make(chan due, len(ops))
	var ended atomic.Bool // set when the window is over: queued ops are dropped
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ch {
				if ended.Load() {
					continue
				}
				sent := time.Now()
				ok := runOp(ctx, c, in, d.o, t)
				p.record(d.at, d.o, ok, time.Since(d.at), sent.Sub(d.at))
			}
		}()
	}
	start := p.t0
	interval := float64(time.Second) / rate
	for i, o := range ops {
		at := start.Add(time.Duration(float64(i) * interval))
		sleepUntil(at)
		if ctx.Err() != nil {
			break
		}
		p.genLags = append(p.genLags, time.Since(at))
		ch <- due{o, at}
	}
	// The window ends one interval after the last op was due.
	sleepUntil(start.Add(time.Duration(float64(len(ops)) * interval)))
	p.backlog = len(ch)
	ended.Store(true)
	close(ch)
	wg.Wait()
	p.finish()
	return p
}

// sleepUntil sleeps until t with the kernel's timer precision. A Go
// timer shorter than a millisecond can fire up to a millisecond late
// when the scheduler is idle, which at these rates would send ops in
// bursts; nanosleep blocks only this goroutine's thread and wakes
// within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedWarm is the start of a closed loop that its figures leave out:
// a freshly booted daemon serves its first writes and reads slower.
const closedWarm = 1500 * time.Millisecond

// closedLoop runs conns clients that each send the next of ops as soon
// as their previous one completes, until all ops are done. The work is
// fixed, so the store a serve workload ends with does not depend on
// how fast the program was.
func closedLoop(ctx context.Context, c *client, in *inputs, ops []op, conns int, t *tally) *phase {
	p := newPhase()
	p.warm = int(closedWarm / sliceDur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				ok := runOp(ctx, c, in, ops[i], t)
				p.record(time.Now(), ops[i], ok, time.Since(t0), 0)
			}
		}()
	}
	wg.Wait()
	p.finish()
	return p
}

// quantile returns the nearest-rank q-quantile of ds (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartile returns the k'th quartile of v (k = 1, 2, 3), interpolated
// between order statistics (0 for none).
func quartile(v []float64, k int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := float64(k) / 4 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
