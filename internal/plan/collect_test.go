package plan

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/ecrpq"
	"repro/internal/qcache"
)

// TestDroppedPlanCollectable: a result-cache entry retains only its
// Result, not the compiled program that produced it. Once the caller
// drops the plan, the garbage collector reclaims its program (engines,
// runner memos, automata) while the entry stays cached under the
// program's id.
func TestDroppedPlanCollectable(t *testing.T) {
	c := qcache.New(1 << 20)
	s := stringGraph("aabbab").Snapshot()
	opts := ecrpq.Options{}
	var (
		prog weak.Pointer[ecrpq.Program]
		k    qcache.Key
	)
	func() {
		p, err := Compile(ecrpq.MustParse("Ans(x, y) <- (x,p,y), a+b+(p)", env()), env())
		if err != nil {
			t.Fatal(err)
		}
		res, cached, err := p.EvalSnapshotCached(context.Background(), s, opts, c)
		if err != nil || cached || len(res.Answers) == 0 {
			t.Fatalf("EvalSnapshotCached = (%d answers, cached=%v, %v)", len(res.Answers), cached, err)
		}
		prog = weak.Make(p.prog)
		k = p.CacheKeyFor(s, opts)
		if k.Prog != p.ProgramID() || k.Prog != p.prog.ID() {
			t.Fatalf("cache key names program %d, plan's program is %d", k.Prog, p.ProgramID())
		}
	}()
	runtime.GC()
	if prog.Value() != nil {
		t.Fatal("dropped plan's program is still reachable: a cache entry pins it")
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("entry left the cache with its program")
	}
}

// TestProgramIDsUnique: every compilation gets its own program id, so
// two plans of the same text never share cache entries, and Forget of
// one leaves the other's alone.
func TestProgramIDsUnique(t *testing.T) {
	q := ecrpq.MustParse("Ans(x, y) <- (x,p,y), a+(p)", env())
	p1, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(q, env())
	if err != nil {
		t.Fatal(err)
	}
	if p1.ProgramID() == 0 || p1.ProgramID() == p2.ProgramID() {
		t.Fatalf("program ids %d, %d: want distinct and nonzero", p1.ProgramID(), p2.ProgramID())
	}
	c := qcache.New(1 << 20)
	s := stringGraph("aab").Snapshot()
	for _, p := range []*Plan{p1, p2} {
		if _, _, err := p.EvalSnapshotCached(context.Background(), s, ecrpq.Options{}, c); err != nil {
			t.Fatal(err)
		}
	}
	c.Forget(p1.ProgramID())
	if _, ok := c.Get(p1.CacheKeyFor(s, ecrpq.Options{})); ok {
		t.Error("forgotten plan's entry still cached")
	}
	if _, ok := c.Get(p2.CacheKeyFor(s, ecrpq.Options{})); !ok {
		t.Error("Forget of one plan dropped another plan's entry")
	}
}
