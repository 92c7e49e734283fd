package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ecrpq"
	"repro/internal/qcache"
)

// putQuery registers text under name through PUT /queries/{name}.
func putQuery(t *testing.T, base, name, text string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/queries/"+name, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s status = %d", name, resp.StatusCode)
	}
}

// cacheStatz returns the cache section of /statz.
func cacheStatz(t *testing.T, base string) qcache.Stats {
	t.Helper()
	var st Stats
	if code := getJSON(t, base+"/statz", &st); code != http.StatusOK {
		t.Fatalf("statz status = %d", code)
	}
	return st.Cache
}

// TestReregisterForgetsReplacedPlan: replacing a registry entry with
// new text forgets every cached result of the replaced plan (they are
// unreachable: no later request can present its program) and leaves
// other queries' entries alone.
func TestReregisterForgetsReplacedPlan(t *testing.T) {
	_, ts := newTestServer(t, "ababab", Config{})
	putQuery(t, ts.URL, "q", "Ans(x,y) <- (x,p,y), a+(p)")
	for _, path := range []string{"/query/q", "/query/q?bind=x=v0", "/query/q?bind=x=v2", "/query/aplus"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, code)
		}
	}
	before := cacheStatz(t, ts.URL)
	if before.Entries != 4 || before.Forgotten != 0 {
		t.Fatalf("cache before re-register = %+v", before)
	}

	putQuery(t, ts.URL, "q", "Ans(x,y) <- (x,p,y), b+(p)")
	after := cacheStatz(t, ts.URL)
	if after.Entries != 1 || after.Forgotten != 3 {
		t.Fatalf("cache after re-register: entries %d forgotten %d, want 1 (aplus) and 3", after.Entries, after.Forgotten)
	}
	if after.Bytes >= before.Bytes || after.Evictions != before.Evictions {
		t.Fatalf("re-register did not release the replaced plan's bytes as forgotten: %+v", after)
	}
	var qr queryResponse
	getJSON(t, ts.URL+"/query/aplus", &qr)
	if !qr.Cached {
		t.Fatal("another query's entry was dropped by the re-register")
	}
	getJSON(t, ts.URL+"/query/q", &qr)
	if qr.Cached {
		t.Fatal("replaced query served from the old plan's cache")
	}
}

// TestIdempotentReputKeepsPlan: PUT of text byte-identical to the
// current entry keeps the compiled plan and its warm results, so a
// repeated config push costs no recompute.
func TestIdempotentReputKeepsPlan(t *testing.T) {
	s, ts := newTestServer(t, "ababab", Config{})
	const text = "Ans(x,y) <- (x,p,y), (a|b)+(p)"
	putQuery(t, ts.URL, "q", text)
	first, _ := s.lookup("q")
	var qr queryResponse
	getJSON(t, ts.URL+"/query/q", &qr)
	if qr.Cached {
		t.Fatal("first read served from cache")
	}
	before := cacheStatz(t, ts.URL)

	putQuery(t, ts.URL, "q", text)
	if again, _ := s.lookup("q"); again != first {
		t.Fatal("identical re-PUT recompiled the plan")
	}
	getJSON(t, ts.URL+"/query/q", &qr)
	after := cacheStatz(t, ts.URL)
	if !qr.Cached || after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("read after identical re-PUT: cached=%v, hits %d -> %d, misses %d -> %d",
			qr.Cached, before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if after.Forgotten != 0 {
		t.Fatalf("identical re-PUT forgot %d entries", after.Forgotten)
	}
}

// TestInFlightOrphanAgesOut: a request still running on a replaced
// plan finishes after Register's Forget and admits one orphan entry.
// Nothing can hit it again; it holds only its Result and is the first
// entry the LRU evicts under budget pressure.
func TestInFlightOrphanAgesOut(t *testing.T) {
	c := qcache.New(4 << 10)
	s, ts := newTestServer(t, strings.Repeat("ab", 16), Config{Cache: c})
	if err := s.Register("q", "Ans(x,y) <- (x,p,y), a+(p)"); err != nil {
		t.Fatal(err)
	}
	old, _ := s.lookup("q") // held across Register, like an in-flight request
	if err := s.Register("q", "Ans(x,y) <- (x,p,y), b+(p)"); err != nil {
		t.Fatal(err)
	}
	snap := s.cfg.DB.Snapshot()
	opts := ecrpq.Options{}
	for i := 0; i < 2; i++ {
		if _, _, err := old.plan.EvalSnapshotCached(context.Background(), snap, opts, c); err != nil {
			t.Fatal(err)
		}
	}
	orphan := old.plan.CacheKeyFor(snap, opts)
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("want one orphan entry (one compute, one hit), stats = %+v", st)
	}
	if _, ok := c.Get(orphan); !ok {
		t.Fatal("orphan not admitted")
	}

	// Budget pressure from live queries: bound reads of the new plan.
	for i := 0; c.Stats().Evictions == 0; i++ {
		if i > 32 {
			t.Fatalf("no eviction after %d reads: %+v", i, c.Stats())
		}
		if code := getJSON(t, fmt.Sprintf("%s/query/q?bind=x=v%d", ts.URL, i), nil); code != http.StatusOK {
			t.Fatalf("bound read %d status = %d", i, code)
		}
	}
	if _, ok := c.Get(orphan); ok {
		t.Fatal("orphan survived budget pressure")
	}
	if st := c.Stats(); st.Bytes > st.MaxBytes || st.Forgotten != 0 {
		t.Fatalf("stats after pressure = %+v", st)
	}
}
