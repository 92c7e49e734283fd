// Package qcache is an epoch-keyed, memory-bounded result cache with
// single-flight admission — the serving-path memoization layer over the
// epoch-versioned snapshot store.
//
// Entries are keyed on (program identity, snapshot source+epoch,
// canonicalized options): the (Source, Epoch) pair of a graph.Snapshot
// names one immutable graph state process-wide, so a hit is always
// byte-identical to what re-evaluating against that snapshot would
// produce. Three mechanisms keep the cache bounded and fresh:
//
//   - Single-flight admission: concurrent Do calls with the same key
//     share one computation — N goroutines asking the same question at
//     the same epoch pay one product BFS; the rest wait on the leader
//     (respecting their own contexts) and receive the same value.
//   - LRU eviction under a byte budget: every entry carries a caller
//     reported size; admission evicts from the cold end until the
//     budget holds. Values larger than the whole budget are returned
//     but never admitted.
//   - Dead-epoch dropping with seed retention: the cache tracks the
//     newest epoch seen per source store. When a Do call arrives with a
//     newer epoch — i.e. a fresh snapshot of that store has been taken —
//     entries of the same store at older epochs are dropped instead of
//     waiting for LRU to age them out, EXCEPT the freshest entry of each
//     (program, source, options) group: that one is retained as the
//     revalidation seed (Prev) until a newer entry of its group is
//     admitted. (Entries for other stores are untouched; a pinned old
//     snapshot can still be served, it just re-evaluates.)
//   - Forget on program retirement: a caller that replaces a program
//     for good drops all of its entries at once, since no later
//     request can name them.
//
// Values are shared between all callers that hit one entry: they must
// be treated as immutable. The cache itself is safe for concurrent use.
package qcache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/qerr"
)

// Key identifies one cached evaluation.
type Key struct {
	// Prog is the process-unique id of the compiled program
	// (ecrpq.Program.ID in the serving path). Programs are immutable
	// after compilation, so the id is a sound fingerprint, and unlike
	// the pointer it does not keep a dropped program alive: an entry
	// retains only its value.
	Prog uint64
	// Source and Epoch name the immutable graph state (graph.Snapshot
	// Source/Epoch): epochs are monotonic per source store, so the pair
	// never renames content.
	Source uint64
	// Epoch is the snapshot epoch within Source.
	Epoch uint64
	// Opts is the canonicalized option/bind string
	// (ecrpq.Options.CacheKey).
	Opts string
}

// Served says how a Do/DoServe call's value was produced — the
// freshness taxonomy the daemon's /statz and the replay summary report.
type Served uint8

const (
	// ServedCompute: the leader ran the full computation.
	ServedCompute Served = iota
	// ServedHit: answered from a stored exact-epoch entry.
	ServedHit
	// ServedWait: joined another caller's in-flight computation.
	ServedWait
	// ServedRevalidated: the leader proved a previous epoch's entry
	// unaffected by the writes since and re-stamped it — a full-speed
	// hit in all but the counter.
	ServedRevalidated
	// ServedIncremental: the leader advanced a previous epoch's entry by
	// delta evaluation instead of recomputing from scratch.
	ServedIncremental
)

// String returns the counter-style name of the serving kind.
func (s Served) String() string {
	switch s {
	case ServedCompute:
		return "compute"
	case ServedHit:
		return "hit"
	case ServedWait:
		return "wait"
	case ServedRevalidated:
		return "revalidated"
	case ServedIncremental:
		return "incremental"
	}
	return "unknown"
}

// Stats is a point-in-time counter snapshot (see Cache.Stats).
type Stats struct {
	// Hits counts Do calls answered from a stored entry at the exact
	// epoch asked about — the fresh hits.
	Hits uint64
	// Misses counts Do calls that ran the full computation as leader.
	Misses uint64
	// Revalidated counts leader flights resolved by proving a previous
	// epoch's entry unaffected (ServedRevalidated), Incremental ones
	// resolved by delta evaluation over a previous entry
	// (ServedIncremental). Together with Hits they split "served from
	// cached data" into fresh / revalidated / incremental.
	Revalidated uint64
	Incremental uint64
	// Waits counts Do calls that joined another caller's in-flight
	// computation instead of starting their own (the single-flight wins).
	Waits uint64
	// Evictions counts entries dropped by the LRU byte budget.
	Evictions uint64
	// Forgotten counts entries dropped by Forget because their program
	// was retired (not counted in Evictions).
	Forgotten uint64
	// DeadDropped counts entries dropped because their epoch died (a
	// newer snapshot of their source store was seen, beyond the stale
	// lag window).
	DeadDropped uint64
	// StaleHits and StaleMisses count Stale lookups that found a
	// within-lag entry vs. ones that found nothing acceptable — the
	// graceful-degradation counters.
	StaleHits   uint64
	StaleMisses uint64
	// Entries and Bytes describe the current cache content; MaxBytes is
	// the configured budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// Cache is the epoch-keyed result cache. The zero value is not usable;
// construct with New.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	lru     *list.List // *entry; front = most recently used
	entries map[Key]*list.Element
	flights map[Key]*flight
	newest  map[uint64]uint64 // source id → newest epoch seen
	stats   Stats
	// staleLag is how many epochs a dead entry is retained past its
	// death for degraded (bounded-staleness) serving; 0 = drop dead
	// epochs immediately (the pre-degradation behavior).
	staleLag uint64
}

type entry struct {
	key  Key
	val  any
	size int64
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// groupOf strips the epoch from a key: entries sharing a group are the
// same question asked of the same store at different epochs.
func groupOf(k Key) Key {
	k.Epoch = 0
	return k
}

// New returns a cache bounded to maxBytes of cached value sizes (as
// reported by the compute callbacks). maxBytes <= 0 disables storage —
// Do still deduplicates concurrent identical computations, but nothing
// is retained.
func New(maxBytes int64) *Cache {
	return &Cache{
		max:     maxBytes,
		lru:     list.New(),
		entries: make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
		newest:  make(map[uint64]uint64),
	}
}

// isCtxErr reports a leader failure caused by the leader's own
// context, which waiters must not inherit: their question is still
// unanswered and their own context may be fine, so they retry.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do returns the cached value for k, joins an identical in-flight
// computation, or runs compute as the leader — in that order. The
// returned bool reports whether the value came from the cache or
// another flight (true) rather than this caller's own compute (false).
//
// compute returns the value, its retained size in bytes (the unit the
// byte budget is enforced in), and an error. Errors are returned to the
// leader and every waiter but never cached. A leader failure that is
// its own context's cancellation is not propagated to waiters — each
// waiter retries (becoming the new leader if need be), so one impatient
// client cannot poison the answer for patient ones. ctx cancellation
// while waiting returns ctx.Err() without disturbing the flight.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (any, int64, error)) (any, bool, error) {
	v, served, err := c.DoServe(ctx, k, func() (any, int64, Served, error) {
		val, size, cerr := compute()
		return val, size, ServedCompute, cerr
	})
	return v, served == ServedHit || served == ServedWait, err
}

// DoServe is Do with a freshness-aware compute: the leader callback
// reports how it produced the value (full compute, revalidation of a
// previous epoch's entry, or incremental delta evaluation — see Served)
// so the stats split serving into fresh hits / revalidated /
// incremental / full recomputes. The returned Served reports this
// caller's own serving kind (ServedHit for a stored entry, ServedWait
// for a joined flight, otherwise whatever the leader callback
// reported). Single-flight, error, and admission semantics are exactly
// Do's.
func (c *Cache) DoServe(ctx context.Context, k Key, compute func() (any, int64, Served, error)) (any, Served, error) {
	for {
		c.mu.Lock()
		c.dropDeadLocked(k.Source, k.Epoch)
		if el, ok := c.entries[k]; ok {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			v := el.Value.(*entry).val
			c.mu.Unlock()
			return v, ServedHit, nil
		}
		if f, ok := c.flights[k]; ok {
			c.stats.Waits++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ServedWait, ctx.Err()
			}
			if f.err != nil {
				if isCtxErr(f.err) {
					// The leader gave up for its own reasons; ask again.
					if ctx.Err() != nil {
						return nil, ServedWait, ctx.Err()
					}
					continue
				}
				return nil, ServedWait, f.err
			}
			return f.val, ServedWait, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[k] = f
		c.mu.Unlock()

		val, size, served, err := func() (v any, s int64, sv Served, e error) {
			// If compute panics, resolve the flight with an error before
			// the panic continues to the leader's caller (the serving
			// layer isolates it per request): waiters must never be left
			// blocked on a flight whose leader is gone.
			normal := false
			defer func() {
				if normal {
					return
				}
				f.err = errors.New("qcache: leader panicked during compute")
				close(f.done)
				c.mu.Lock()
				delete(c.flights, k)
				c.stats.Misses++
				c.mu.Unlock()
			}()
			v, s, sv, e = compute()
			normal = true
			return
		}()
		if err == nil {
			// Fault point: turn a successful leader into a failed one
			// before waiters see the value — the cache-leader failure
			// class of the fault-injection harness.
			if ferr := faultinject.Inject(faultinject.CacheLeader); ferr != nil {
				val, size, err = nil, 0, ferr
			}
		}
		f.val, f.err = val, err
		close(f.done)

		c.mu.Lock()
		delete(c.flights, k)
		switch {
		case err != nil || served == ServedCompute:
			c.stats.Misses++
		case served == ServedRevalidated:
			c.stats.Revalidated++
		case served == ServedIncremental:
			c.stats.Incremental++
		default:
			c.stats.Misses++
		}
		if err == nil {
			c.admitLocked(k, val, size)
		}
		c.mu.Unlock()
		return val, served, err
	}
}

// Prev returns the freshest stored value of k's (Prog, Source, Opts)
// group at an epoch strictly older than k.Epoch, with its epoch. It is
// the leader's revalidation seed: dead-epoch dropping deliberately
// retains the newest entry of each group (see dropDeadLocked) so an
// epoch-stale lookup can try to advance it instead of recomputing. The
// LRU order is left untouched — a seed read is not a hit.
func (c *Cache) Prev(k Key) (any, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.Prog != k.Prog || e.key.Source != k.Source || e.key.Opts != k.Opts {
			continue
		}
		if e.key.Epoch >= k.Epoch {
			continue
		}
		if best == nil || e.key.Epoch > best.key.Epoch {
			best = e
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best.val, best.key.Epoch, true
}

// SetStaleLag configures graceful degradation: dead-epoch dropping
// retains entries that are at most lag epochs behind the newest seen,
// so Stale can serve them when the serving layer decides a bounded-lag
// answer beats a failure. Zero (the default) restores immediate
// dropping. Safe to call concurrently with Do; it affects future drops
// only.
func (c *Cache) SetStaleLag(lag uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.staleLag = lag
}

// Stale returns the freshest cached value for k's (Prog, Source, Opts)
// at an epoch at most k.Epoch and at least k.Epoch−maxLag, together
// with its lag (k.Epoch − found epoch; 0 means the exact epoch was
// cached). It never computes and never waits on flights — it is the
// degraded read path for an overloaded server: answer from the recent
// past, bounded, rather than fail.
//
// When nothing within the window exists the error is qerr.ErrStale
// (errors.Is-able), and the second return is the lag of the freshest
// too-old candidate (0 when there was no candidate at all).
func (c *Cache) Stale(k Key, maxLag uint64) (any, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *list.Element
	var bestEpoch uint64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.Prog != k.Prog || e.key.Source != k.Source || e.key.Opts != k.Opts {
			continue
		}
		if e.key.Epoch > k.Epoch {
			continue // from the future of a pinned old snapshot: not ours
		}
		if best == nil || e.key.Epoch > bestEpoch {
			best, bestEpoch = el, e.key.Epoch
		}
	}
	if best == nil {
		c.stats.StaleMisses++
		return nil, 0, qerr.ErrStale
	}
	lag := k.Epoch - bestEpoch
	if lag > maxLag {
		c.stats.StaleMisses++
		return nil, lag, qerr.ErrStale
	}
	c.lru.MoveToFront(best)
	c.stats.StaleHits++
	return best.Value.(*entry).val, lag, nil
}

// Get returns the cached value for k without computing or waiting.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).val, true
}

// dropDeadLocked records epoch for source and, when it advanced, drops
// every entry of the same source that has fallen more than staleLag
// epochs behind — with one exception: the freshest entry of each
// (Prog, Source, Opts) group survives as a revalidation seed, so an
// epoch-stale lookup can prove it unaffected or advance it by delta
// evaluation instead of recomputing (see Prev). A seed is dropped the
// moment a newer entry of its group is admitted (see admitLocked), so
// each group holds at most one below-floor entry. Entries within the
// lag window are retained for Stale lookups regardless (they are never
// returned by exact-epoch Do hits). Cost is one walk of the
// (budget-bounded) entry list per advance.
func (c *Cache) dropDeadLocked(source, epoch uint64) {
	if source == 0 {
		return // unidentified store: nothing to invalidate against
	}
	if newest, ok := c.newest[source]; ok && epoch <= newest {
		return
	}
	c.newest[source] = epoch
	var floor uint64
	if epoch > c.staleLag {
		floor = epoch - c.staleLag
	}
	var freshest map[Key]uint64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.Source != source {
			continue
		}
		g := groupOf(e.key)
		if freshest == nil {
			freshest = make(map[Key]uint64)
		}
		if cur, ok := freshest[g]; !ok || e.key.Epoch > cur {
			freshest[g] = e.key.Epoch
		}
	}
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		if e.key.Source == source && e.key.Epoch < floor && e.key.Epoch < freshest[groupOf(e.key)] {
			c.removeLocked(el)
			c.stats.DeadDropped++
		}
	}
}

// admitLocked inserts (k, v) and evicts from the cold end until the
// byte budget holds. Oversized values are simply not admitted, and
// neither is an entry whose epoch the store has already moved past
// (a slow leader finishing after an advance, or a deliberately
// re-served pinned old snapshot): the value is still returned to its
// callers, but a known-dead entry must not hold budget that live
// epochs could use.
func (c *Cache) admitLocked(k Key, v any, size int64) {
	if size > c.max {
		return
	}
	if newest, ok := c.newest[k.Source]; ok && k.Epoch < newest && newest-k.Epoch > c.staleLag {
		return
	}
	if el, ok := c.entries[k]; ok {
		// Lost an admission race through a dead-epoch revival path; keep
		// the existing entry fresh rather than double-counting.
		c.lru.MoveToFront(el)
		return
	}
	// Superseding admit: a below-floor entry of the same group was only
	// being retained as the revalidation seed, and this newer entry is a
	// strictly better one — drop the old seed now rather than letting it
	// hold budget until the next epoch advance.
	var floor uint64
	if newest := c.newest[k.Source]; newest > c.staleLag {
		floor = newest - c.staleLag
	}
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		if e.key.Epoch < k.Epoch && e.key.Epoch < floor && groupOf(e.key) == groupOf(k) {
			c.removeLocked(el)
			c.stats.DeadDropped++
		}
	}
	el := c.lru.PushFront(&entry{key: k, val: v, size: size})
	c.entries[k] = el
	c.bytes += size
	for c.bytes > c.max {
		cold := c.lru.Back()
		if cold == nil || cold == el {
			break
		}
		c.removeLocked(cold)
		c.stats.Evictions++
	}
}

// removeLocked unlinks an entry and releases its budget share.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// Forget drops every stored entry of program prog — exact-epoch
// entries, revalidation seeds and stale-window entries alike — and
// releases their budget. Callers use it when they retire a program no
// request can name again (a registry entry replaced by a recompiled
// query), so its entries stop holding budget the LRU would only age
// out later. Flights in progress are unaffected: a flight of prog
// that finishes after Forget still admits its value, which then ages
// out through the LRU like any entry that is never hit again.
func (c *Cache) Forget(prog uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*entry).key.Prog == prog {
			c.removeLocked(el)
			c.stats.Forgotten++
		}
	}
}

// Invalidate drops every entry (flights in progress are unaffected and
// will admit into the emptied cache).
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[Key]*list.Element)
	c.bytes = 0
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.MaxBytes = c.max
	return s
}
