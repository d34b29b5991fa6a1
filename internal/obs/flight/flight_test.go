package flight

import (
	"testing"
	"time"
)

func TestAttributionFinishPartitionsTotal(t *testing.T) {
	a := Attribution{
		Endpoint:    "/v1/evaluate",
		RequestID:   "req-1",
		Disposition: "MISS",
		PoolDepth:   3,
		Breakdown: Breakdown{
			QueueWaitNS:   100,
			CacheLookupNS: 50,
			ComputeNS:     700,
			EncodeNS:      80,
			StoreWriteNS:  20,
		},
	}
	start := time.Unix(100, 0)
	e := a.Finish(start, 1000*time.Nanosecond, 200)
	if e.OtherNS != 50 {
		t.Fatalf("other = %d, want 50 (total 1000 - attributed 950)", e.OtherNS)
	}
	if got := e.StageSumNS(); got != e.TotalNS {
		t.Fatalf("stage sum %d != total %d", got, e.TotalNS)
	}
	if err := e.CheckTotal(0.01); err != nil {
		t.Fatalf("CheckTotal: %v", err)
	}
	if e.StartUnixNano != start.UnixNano() {
		t.Fatalf("start = %d, want %d", e.StartUnixNano, start.UnixNano())
	}
	if e.Status != 200 || e.Disposition != "MISS" || e.PoolDepth != 3 {
		t.Fatalf("metadata lost: %+v", e)
	}
}

func TestAttributionFinishClampsNegativeResidual(t *testing.T) {
	a := Attribution{Breakdown: Breakdown{ComputeNS: 2000}}
	e := a.Finish(time.Unix(0, 0), 1000*time.Nanosecond, 200)
	if e.OtherNS != 0 {
		t.Fatalf("other = %d, want clamped 0", e.OtherNS)
	}
	if e.Disposition != "NONE" {
		t.Fatalf("empty disposition should seal as NONE, got %q", e.Disposition)
	}
	// Overshoot breaks the partition invariant; CheckTotal must say so.
	if err := e.CheckTotal(0.01); err == nil {
		t.Fatal("CheckTotal should fail when stages overshoot the total")
	}
}

func TestAttributionAddBreakdown(t *testing.T) {
	a := Attribution{Breakdown: Breakdown{QueueWaitNS: 10}}
	a.Add(Breakdown{QueueWaitNS: 5, ComputeNS: 100, EncodeNS: 7, StoreWriteNS: 3})
	if a.QueueWaitNS != 15 || a.ComputeNS != 100 || a.EncodeNS != 7 || a.StoreWriteNS != 3 {
		t.Fatalf("breakdown not folded: %+v", a)
	}
}

func TestEventStageNSCoversAllStages(t *testing.T) {
	e := Event{QueueWaitNS: 1, CacheLookupNS: 2, ComputeNS: 3, EncodeNS: 4, StoreWriteNS: 5, OtherNS: 6}
	var sum int64
	for _, s := range Stages {
		sum += e.StageNS(s)
	}
	if sum != e.StageSumNS() {
		t.Fatalf("Stages list sum %d != StageSumNS %d", sum, e.StageSumNS())
	}
	if e.StageNS("bogus") != 0 {
		t.Fatal("unknown stage should report 0")
	}
}

func TestRecorderDumpOrderedBySeq(t *testing.T) {
	r := NewRecorder(8, 8, 0)
	for i := 0; i < 5; i++ {
		r.Record(Event{Endpoint: "/v1/evaluate", TotalNS: int64(i)})
	}
	evs := r.Dump(RingRecent, 0)
	if len(evs) != 5 {
		t.Fatalf("dump returned %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if got := r.Dump(RingRecent, 2); len(got) != 2 || got[0].Seq != 4 {
		t.Fatalf("max=2 should keep newest two, got %+v", got)
	}
	if r.Dump("bogus", 0) != nil {
		t.Fatal("unknown ring name should return nil")
	}
}

func TestRecorderRecentRingEvicts(t *testing.T) {
	r := NewRecorder(4, 4, 0)
	for i := 0; i < 10; i++ {
		r.Record(Event{TotalNS: int64(i)})
	}
	evs := r.Dump(RingRecent, 0)
	if len(evs) != 4 {
		t.Fatalf("recent ring should hold 4 events, got %d", len(evs))
	}
	for _, e := range evs {
		if e.Seq <= 6 {
			t.Fatalf("old event seq %d survived eviction", e.Seq)
		}
	}
}

func TestRecorderSlowRingRetainsSlowEvents(t *testing.T) {
	r := NewRecorder(4, 8, time.Millisecond)
	// One slow event, then enough fast traffic to lap the recent ring.
	r.Record(Event{Endpoint: "/v1/batch", TotalNS: (2 * time.Millisecond).Nanoseconds()})
	for i := 0; i < 16; i++ {
		r.Record(Event{Endpoint: "/v1/evaluate", TotalNS: 100})
	}
	slow := r.Dump(RingSlow, 0)
	if len(slow) != 1 || !slow[0].Slow || slow[0].Endpoint != "/v1/batch" {
		t.Fatalf("slow ring = %+v, want the one slow batch event", slow)
	}
	// The union dedups by seq and includes the slow event exactly once.
	all := r.Dump(RingAll, 0)
	count := 0
	for _, e := range all {
		if e.Slow {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("union contains slow event %d times, want 1", count)
	}
	if !r.IsSlow(time.Millisecond) || r.IsSlow(999*time.Microsecond) {
		t.Fatal("IsSlow threshold comparison wrong")
	}
	if r.SlowThreshold() != time.Millisecond {
		t.Fatalf("SlowThreshold = %v", r.SlowThreshold())
	}
}

func TestRecorderDisabledSlowThreshold(t *testing.T) {
	r := NewRecorder(4, 4, 0)
	r.Record(Event{TotalNS: int64(time.Hour)})
	if evs := r.Dump(RingSlow, 0); len(evs) != 0 {
		t.Fatalf("slow ring should stay empty with threshold disabled, got %d", len(evs))
	}
	if r.IsSlow(time.Hour) {
		t.Fatal("IsSlow must be false when disabled")
	}
}

func TestRecordZeroAllocs(t *testing.T) {
	r := NewRecorder(1024, 64, 100*time.Millisecond)
	e := Event{
		Endpoint:    "/v1/evaluate",
		RequestID:   "0123456789abcdef",
		Disposition: "HIT",
		TotalNS:     5000,
		OtherNS:     5000,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(1024, 64, 100*time.Millisecond)
	e := Event{Endpoint: "/v1/evaluate", Disposition: "HIT", TotalNS: 5000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}
