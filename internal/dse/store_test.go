package dse

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ppatc/internal/obs"
	"ppatc/internal/store"
)

func TestPointKeyIdentity(t *testing.T) {
	plan, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, p := range plan.Points {
		k := planPointKey(plan, p)
		if prev, dup := seen[k]; dup {
			t.Fatalf("points %d and %d collide on key %q", prev, p.Index, k)
		}
		seen[k] = p.Index
	}
	// The key is index- and replica-blind: the same coordinate at a
	// different plan position keys identically.
	p := plan.Points[3]
	moved := p
	moved.Index, moved.Replica, moved.Seed = 99, 5, 123
	if planPointKey(plan, p) != planPointKey(plan, moved) {
		t.Error("key depends on index/replica/seed")
	}
	// But the use grid is part of the identity.
	if PointKey("US", 400, p) == PointKey("Coal", 820, p) {
		t.Error("key ignores the use grid")
	}
}

// TestCrossJobDedup is the store's reason to exist inside dse: a second
// job whose plan overlaps an earlier job's points evaluates only the
// new ones.
func TestCrossJobDedup(t *testing.T) {
	st := store.NewMemStore()

	// Job 1: the full test spec, persisting every point.
	plan1, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var evals1 obs.Counter
	res1, err := RunPlan(context.Background(), plan1, Options{
		Workers:     2,
		EvalCounter: &evals1,
		OnComplete:  func(r Result) error { return PersistPoint(st, plan1, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := evals1.Load(); got != int64(len(plan1.Points)) {
		t.Fatalf("job 1 evaluated %d of %d", got, len(plan1.Points))
	}

	// Job 2: a different spec whose plan is a superset slice — same two
	// systems and grids, but three lifetimes (two shared, one new).
	spec2 := testSpec()
	spec2.Name = "unit-2"
	spec2.Axes.LifetimeMonths = &NumericAxis{Values: []float64{12, 24, 36}}
	plan2, err := Expand(spec2)
	if err != nil {
		t.Fatal(err)
	}
	completed, _ := StoredCompleted(st, plan2)
	if len(completed) != len(plan1.Points) {
		t.Fatalf("adopted %d stored points, want %d", len(completed), len(plan1.Points))
	}
	var evals2 obs.Counter
	res2, err := RunPlan(context.Background(), plan2, Options{
		Workers:     2,
		Completed:   completed,
		EvalCounter: &evals2,
		OnComplete:  func(r Result) error { return PersistPoint(st, plan2, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := len(plan2.Points) - len(plan1.Points)
	if got := evals2.Load(); got != int64(fresh) {
		t.Fatalf("job 2 evaluated %d points, want %d fresh ones", got, fresh)
	}

	// Adopted results are byte-identical to a from-scratch run of the
	// same plan (the determinism contract, now spanning jobs).
	res2Fresh, err := RunPlan(context.Background(), plan2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ndjson(t, res2), ndjson(t, res2Fresh)) {
		t.Error("adopted results differ from fresh evaluation")
	}
	_ = res1
}

func TestPersistLoadSweep(t *testing.T) {
	st := store.NewMemStore()
	plan, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunPlan(context.Background(), plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := plan.Hash[:12]
	if err := PersistSweep(st, id, results); err != nil {
		t.Fatal(err)
	}

	loaded, ok, err := LoadSweep(st, id)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	// The replayed NDJSON must match the live stream byte for byte.
	if !bytes.Equal(ndjson(t, loaded), ndjson(t, results)) {
		t.Error("stored sweep replay is not byte-identical")
	}

	if _, ok, err := LoadSweep(st, "nonexistent"); ok || err != nil {
		t.Errorf("phantom sweep: ok=%v err=%v", ok, err)
	}
	// A nil store is a silent no-op everywhere.
	if err := PersistSweep(nil, id, results); err != nil {
		t.Error(err)
	}
	if _, ok, _ := LoadSweep(nil, id); ok {
		t.Error("nil store returned a sweep")
	}
	if m, _ := StoredCompleted(nil, plan); m != nil {
		t.Error("nil store returned completions")
	}
}

// failGetStore fails every Get of one key, standing in for a store
// whose read path broke under it.
type failGetStore struct {
	store.ResultStore
	key string
}

func (s failGetStore) Get(key string) (store.Record, bool, error) {
	if key == s.key {
		return store.Record{}, false, errors.New("disk on fire")
	}
	return s.ResultStore.Get(key)
}

// TestStoredCompletedCountsSkipped pins that a point the store cannot
// give back — a failed read or an undecodable body — is re-evaluated,
// not adopted, and is counted rather than silently dropped.
func TestStoredCompletedCountsSkipped(t *testing.T) {
	plan, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	results, err := RunPlan(context.Background(), plan, Options{
		Workers:    2,
		OnComplete: func(r Result) error { return PersistPoint(mem, plan, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	garbled := planPointKey(plan, plan.Points[2])
	if err := mem.Put(store.Record{Key: garbled, Kind: KindPoint, Body: []byte("{not json")}); err != nil {
		t.Fatal(err)
	}
	st := failGetStore{ResultStore: mem, key: planPointKey(plan, plan.Points[5])}

	completed, skipped := StoredCompleted(st, plan)
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (one failed read, one undecodable body)", skipped)
	}
	if _, ok := completed[2]; ok {
		t.Error("undecodable point adopted")
	}
	if _, ok := completed[5]; ok {
		t.Error("unreadable point adopted")
	}
	if len(completed) != len(plan.Points)-2 {
		t.Fatalf("adopted %d points, want %d", len(completed), len(plan.Points)-2)
	}
	var evals obs.Counter
	resumed, err := RunPlan(context.Background(), plan, Options{Workers: 2, Completed: completed, EvalCounter: &evals})
	if err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != 2 {
		t.Errorf("re-evaluated %d points, want the 2 skipped ones", got)
	}
	if !bytes.Equal(ndjson(t, resumed), ndjson(t, results)) {
		t.Error("resume over a partly unreadable store differs from the clean run")
	}
}
