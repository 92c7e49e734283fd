package qcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Program ids of the tests' two programs.
const (
	progP uint64 = 1
	progQ uint64 = 2
)

func key(prog, source, epoch uint64, opts string) Key {
	return Key{Prog: prog, Source: source, Epoch: epoch, Opts: opts}
}

// TestHitMissBasics: a miss computes and stores, a hit returns the same
// value without recomputing.
func TestHitMissBasics(t *testing.T) {
	c := New(1 << 20)
	computes := 0
	compute := func() (any, int64, error) {
		computes++
		return "value", 8, nil
	}
	k := key(progP, 1, 1, "")
	v, hit, err := c.Do(context.Background(), k, compute)
	if err != nil || hit || v != "value" {
		t.Fatalf("first Do = (%v, %v, %v)", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), k, compute)
	if err != nil || !hit || v != "value" {
		t.Fatalf("second Do = (%v, %v, %v)", v, hit, err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times", computes)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 8 {
		t.Fatalf("stats = %+v", s)
	}
	// Different options, epoch or program are different entries.
	for _, k2 := range []Key{
		key(progP, 1, 1, "bind:x=1"),
		key(progP, 1, 2, ""),
		key(progQ, 1, 2, ""),
	} {
		if _, hit, _ := c.Do(context.Background(), k2, compute); hit {
			t.Fatalf("key %+v unexpectedly hit", k2)
		}
	}
}

// TestErrorsNotCached: a failed computation is reported but never
// admitted, so the next call recomputes.
func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	k := key(progP, 1, 1, "")
	if _, _, err := c.Do(context.Background(), k, func() (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Do(context.Background(), k, func() (any, int64, error) {
		return "ok", 2, nil
	})
	if err != nil || hit || v != "ok" {
		t.Fatalf("after error: (%v, %v, %v)", v, hit, err)
	}
}

// TestLRUEviction: admission beyond the byte budget evicts the coldest
// entries first; touching an entry protects it.
func TestLRUEviction(t *testing.T) {
	c := New(100)
	put := func(i int) {
		k := key(progP, 1, 1, fmt.Sprintf("o%d", i))
		c.Do(context.Background(), k, func() (any, int64, error) { return i, 40, nil })
	}
	get := func(i int) bool {
		_, ok := c.Get(key(progP, 1, 1, fmt.Sprintf("o%d", i)))
		return ok
	}
	put(0)
	put(1) // 80 bytes
	if !get(0) || !get(1) {
		t.Fatal("entries missing before eviction")
	}
	get(0) // touch 0: 1 is now coldest
	put(2) // 120 > 100: evicts 1
	if !get(0) || get(1) || !get(2) {
		t.Fatalf("LRU eviction wrong: 0=%v 1=%v 2=%v", get(0), get(1), get(2))
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 80 {
		t.Fatalf("stats = %+v", s)
	}
	// An oversized value is returned but never admitted.
	k := key(progP, 1, 1, "huge")
	if _, hit, err := c.Do(context.Background(), k, func() (any, int64, error) { return "big", 1000, nil }); hit || err != nil {
		t.Fatal("oversized Do failed")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("oversized value admitted")
	}
}

// TestDeadEpochDrop: a Do at a newer epoch of the same source drops the
// older epochs' entries of that source — except the freshest entry of
// each (Prog, Source, Opts) group, which is retained as the
// revalidation seed (Prev) until a newer entry of its own group
// supersedes it. Other sources are left alone.
func TestDeadEpochDrop(t *testing.T) {
	c := New(1 << 20)
	cmp := func() (any, int64, error) { return "v", 8, nil }
	c.Do(context.Background(), key(progP, 1, 1, "a"), cmp) // older entry of group a
	c.Do(context.Background(), key(progP, 1, 2, "a"), cmp) // supersedes it on admit
	c.Do(context.Background(), key(progP, 1, 2, "b"), cmp)
	c.Do(context.Background(), key(progP, 2, 1, ""), cmp) // other store
	// The epoch-2 admit of group a superseded the dead epoch-1 entry
	// immediately — a group keeps at most one below-floor entry.
	if _, ok := c.Get(key(progP, 1, 1, "a")); ok {
		t.Error("superseded dead entry of group a survived its superseding admit")
	}
	if s := c.Stats(); s.Entries != 3 || s.DeadDropped != 1 {
		t.Fatalf("entries/dropped = %d/%d", s.Entries, s.DeadDropped)
	}
	c.Do(context.Background(), key(progP, 1, 5, ""), cmp) // epoch advance on store 1
	if _, ok := c.Get(key(progP, 1, 2, "a")); !ok {
		t.Error("revalidation seed of group a dropped")
	}
	if _, ok := c.Get(key(progP, 1, 2, "b")); !ok {
		t.Error("revalidation seed of group b dropped")
	}
	if _, ok := c.Get(key(progP, 2, 1, "")); !ok {
		t.Error("unrelated store's entry dropped")
	}
	if _, ok := c.Get(key(progP, 1, 5, "")); !ok {
		t.Error("current epoch entry missing")
	}
	// Prev finds the seed of its group, not other groups' entries.
	if v, ep, ok := c.Prev(key(progP, 1, 9, "a")); !ok || ep != 2 || v != "v" {
		t.Fatalf("Prev = (%v, %d, %v)", v, ep, ok)
	}
	if _, _, ok := c.Prev(key(progQ, 1, 9, "a")); ok {
		t.Fatal("Prev crossed program identity")
	}
	// Admitting a newer entry of group a drops its retained seed.
	c.Do(context.Background(), key(progP, 1, 5, "a"), cmp)
	if _, ok := c.Get(key(progP, 1, 2, "a")); ok {
		t.Error("seed of group a survived its superseding admit")
	}
	if s := c.Stats(); s.DeadDropped != 2 {
		t.Fatalf("stats after supersede = %+v", s)
	}
}

// TestForget: Forget drops every stored entry of one program (the
// exact-epoch entry, the revalidation seed and the stale-window entry)
// and releases their bytes, counting them as forgotten rather than
// evicted. Other programs' entries stay, and a flight of the forgotten
// program in progress completes for its leader and waiters, then
// admits its value.
func TestForget(t *testing.T) {
	c := New(1 << 20)
	c.SetStaleLag(1)
	ctx := context.Background()
	put := func(k Key, size int64) {
		c.Do(ctx, k, func() (any, int64, error) { return "v", size, nil })
	}
	put(key(progP, 1, 1, "a"), 10) // below the floor after epoch 4: group a's seed
	put(key(progP, 1, 3, ""), 10)  // inside the stale window after epoch 4
	put(key(progP, 1, 4, ""), 10)
	put(key(progQ, 1, 4, ""), 20)
	put(key(progQ, 2, 1, ""), 20) // other store
	if _, ep, ok := c.Prev(key(progP, 1, 4, "a")); !ok || ep != 1 {
		t.Fatalf("seed missing before Forget: Prev = (%d, %v)", ep, ok)
	}
	if _, lag, err := c.Stale(key(progP, 1, 3, ""), 0); err != nil || lag != 0 {
		t.Fatalf("stale-window entry missing before Forget: (%d, %v)", lag, err)
	}
	before := c.Stats()
	if before.Entries != 5 || before.Bytes != 70 {
		t.Fatalf("stats before Forget = %+v", before)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	flightKey := key(progP, 1, 4, "b")
	leaderDone := make(chan any, 1)
	go func() {
		v, _, err := c.Do(ctx, flightKey, func() (any, int64, error) {
			close(started)
			<-release
			return "orphan", 10, nil
		})
		if err != nil {
			t.Errorf("leader Do: %v", err)
		}
		leaderDone <- v
	}()
	<-started

	c.Forget(progP)
	s := c.Stats()
	if s.Entries != 2 || s.Bytes != 40 || s.Forgotten != 3 {
		t.Fatalf("stats after Forget = %+v", s)
	}
	if s.Evictions != before.Evictions || s.DeadDropped != before.DeadDropped {
		t.Fatalf("Forget counted as eviction or dead drop: %+v", s)
	}
	if _, _, ok := c.Prev(key(progP, 1, 4, "a")); ok {
		t.Error("seed survived Forget")
	}
	if _, _, err := c.Stale(key(progP, 1, 3, ""), 0); err == nil {
		t.Error("stale-window entry survived Forget")
	}
	if _, ok := c.Get(key(progP, 1, 4, "")); ok {
		t.Error("exact-epoch entry survived Forget")
	}
	for _, k := range []Key{key(progQ, 1, 4, ""), key(progQ, 2, 1, "")} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("other program's entry %+v dropped", k)
		}
	}

	// The flight is untouched: a waiter still joins it, and both get
	// the leader's value.
	waiterDone := make(chan any, 1)
	go func() {
		v, hit, err := c.Do(ctx, flightKey, func() (any, int64, error) {
			t.Error("waiter recomputed a flight that Forget must leave alone")
			return nil, 0, nil
		})
		if err != nil || !hit {
			t.Errorf("waiter Do = hit=%v err=%v", hit, err)
		}
		waiterDone <- v
	}()
	for c.Stats().Waits == before.Waits {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-leaderDone; v != "orphan" {
		t.Fatalf("leader got %v", v)
	}
	if v := <-waiterDone; v != "orphan" {
		t.Fatalf("waiter got %v", v)
	}
	if _, ok := c.Get(flightKey); !ok {
		t.Error("flight finishing after Forget was not admitted")
	}
	if s := c.Stats(); s.Entries != 3 || s.Bytes != 50 {
		t.Fatalf("stats after the flight = %+v", s)
	}
}

// TestServedKinds: DoServe's leader outcome drives the split counters —
// revalidated and incremental flights are not misses.
func TestServedKinds(t *testing.T) {
	c := New(1 << 20)
	do := func(epoch uint64, kind Served) Served {
		_, served, err := c.DoServe(context.Background(), key(progP, 1, epoch, ""), func() (any, int64, Served, error) {
			return "v", 8, kind, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return served
	}
	if got := do(1, ServedCompute); got != ServedCompute {
		t.Fatalf("served = %v", got)
	}
	if got := do(2, ServedRevalidated); got != ServedRevalidated {
		t.Fatalf("served = %v", got)
	}
	if got := do(3, ServedIncremental); got != ServedIncremental {
		t.Fatalf("served = %v", got)
	}
	if got := do(3, ServedCompute); got != ServedHit {
		t.Fatalf("repeat at epoch 3 served = %v", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Revalidated != 1 || s.Incremental != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStaleLeaderNotAdmitted: a computation that finishes after its
// epoch has been superseded returns its value but is not admitted —
// a known-dead entry must not occupy budget.
func TestStaleLeaderNotAdmitted(t *testing.T) {
	c := New(1 << 20)
	cmp := func() (any, int64, error) { return "v", 8, nil }
	started := make(chan struct{})
	release := make(chan struct{})
	oldKey := key(progP, 1, 1, "")
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.Do(context.Background(), oldKey, func() (any, int64, error) {
			close(started)
			<-release
			return "old", 8, nil
		})
		if err != nil || hit || v != "old" {
			t.Errorf("slow leader Do = (%v, %v, %v)", v, hit, err)
		}
	}()
	<-started
	c.Do(context.Background(), key(progP, 1, 5, ""), cmp) // epoch advances mid-flight
	close(release)
	<-done
	if _, ok := c.Get(oldKey); ok {
		t.Error("dead-epoch entry admitted by a slow leader")
	}
	if _, ok := c.Get(key(progP, 1, 5, "")); !ok {
		t.Error("current epoch entry missing")
	}
}

// TestSingleFlight: N concurrent Do calls with one key run exactly one
// computation; everyone gets its value. Forget calls racing with the
// flight (run under -race) neither disturb it nor stop its admission.
func TestSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int32
	release := make(chan struct{})
	k := key(progP, 1, 1, "")
	const n = 16
	var wg sync.WaitGroup
	stopForget, forgetDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(forgetDone)
		for {
			select {
			case <-stopForget:
				return
			default:
				c.Forget(progP)
				c.Forget(progQ)
				runtime.Gosched()
			}
		}
	}()
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func() (any, int64, error) {
				computes.Add(1)
				<-release
				return "shared", 8, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let the goroutines pile onto the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(stopForget)
	<-forgetDone
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Waits != n-1 {
		t.Fatalf("stats = %+v", s)
	}
	if _, ok := c.Get(k); !ok || s.Forgotten != 0 {
		t.Fatalf("flight value not admitted past concurrent Forgets (forgotten %d)", s.Forgotten)
	}
}

// TestWaiterCtxCancel: a waiter whose context dies while the flight is
// in progress returns its own ctx error; the flight is unaffected.
func TestWaiterCtxCancel(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	k := key(progP, 1, 1, "")
	started := make(chan struct{})
	go c.Do(context.Background(), k, func() (any, int64, error) {
		close(started)
		<-release
		return "v", 8, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, _, err := c.Do(ctx, k, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v", err)
	}
	close(release)
	// The leader's value still lands in the cache.
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(k); ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("leader value never admitted")
}

// TestLeaderCancelDoesNotPoisonWaiters: when the leader aborts with its
// own context error, waiters retry (one becomes the new leader) instead
// of inheriting the cancellation.
func TestLeaderCancelDoesNotPoisonWaiters(t *testing.T) {
	c := New(1 << 20)
	k := key(progP, 1, 1, "")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(leaderCtx, k, func() (any, int64, error) {
			close(leaderStarted)
			<-leaderCtx.Done()
			return nil, 0, leaderCtx.Err()
		})
	}()
	<-leaderStarted
	waiterDone := make(chan error, 1)
	waiterVal := make(chan any, 1)
	go func() {
		v, _, err := c.Do(context.Background(), k, func() (any, int64, error) {
			return "recomputed", 8, nil
		})
		waiterVal <- v
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // waiter joins the flight
	cancelLeader()
	<-leaderDone
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter err = %v", err)
		}
		if v := <-waiterVal; v != "recomputed" {
			t.Fatalf("waiter value = %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after leader cancellation")
	}
}

// TestConcurrentMixedEpochs hammers the cache from many goroutines with
// advancing epochs (run under -race): invariants are checked by the
// race detector plus final accounting.
func TestConcurrentMixedEpochs(t *testing.T) {
	c := New(4 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				epoch := uint64(i / 10)
				k := key(progP, 1, epoch, fmt.Sprintf("o%d", i%7))
				v, _, err := c.Do(context.Background(), k, func() (any, int64, error) {
					return fmt.Sprintf("%d/%d", epoch, i%7), 32, nil
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if want := fmt.Sprintf("%d/%d", epoch, i%7); v != want {
					t.Errorf("got %v want %v", v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > s.MaxBytes {
		t.Fatalf("budget exceeded: %+v", s)
	}
	if s.Hits+s.Misses+s.Waits == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestZeroBudget: with no byte budget the cache still deduplicates
// in-flight work but stores nothing.
func TestZeroBudget(t *testing.T) {
	c := New(0)
	k := key(progP, 1, 1, "")
	computes := 0
	for i := 0; i < 3; i++ {
		_, hit, err := c.Do(context.Background(), k, func() (any, int64, error) {
			computes++
			return "v", 8, nil
		})
		if err != nil || hit {
			t.Fatalf("Do %d = hit=%v err=%v", i, hit, err)
		}
	}
	if computes != 3 {
		t.Fatalf("computed %d times, want 3 (nothing stored)", computes)
	}
}
