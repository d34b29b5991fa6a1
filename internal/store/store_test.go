package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var (
	_ ResultStore = (*MemStore)(nil)
	_ ResultStore = (*SegmentStore)(nil)
)

// openStores builds one of each implementation over t.TempDir.
func openStores(t *testing.T) map[string]ResultStore {
	t.Helper()
	seg, err := OpenSegmentStore(filepath.Join(t.TempDir(), "seg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]ResultStore{
		"mem":     NewMemStore(),
		"segment": seg,
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores
}

func TestRoundTrip(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			body := []byte("{\n  \"pretty\": true\n}\n") // whitespace must survive verbatim
			if err := st.Put(Record{Key: "evaluate|si|crc32|US", Kind: "evaluate", Body: body}); err != nil {
				t.Fatal(err)
			}
			rec, ok, err := st.Get("evaluate|si|crc32|US")
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(rec.Body, body) {
				t.Errorf("body mangled: %q != %q", rec.Body, body)
			}
			if rec.Kind != "evaluate" {
				t.Errorf("kind = %q", rec.Kind)
			}
			if _, ok, _ := st.Get("missing"); ok {
				t.Error("phantom record")
			}

			// Overwrite replaces; the old body is gone.
			if err := st.Put(Record{Key: "evaluate|si|crc32|US", Kind: "evaluate", Body: []byte(`{"v":2}`)}); err != nil {
				t.Fatal(err)
			}
			rec, _, _ = st.Get("evaluate|si|crc32|US")
			if string(rec.Body) != `{"v":2}` {
				t.Errorf("overwrite lost: %s", rec.Body)
			}
			if got := st.Stats().Keys; got != 1 {
				t.Errorf("keys = %d, want 1", got)
			}
		})
	}
}

func TestPutValidation(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Put(Record{Key: "", Body: []byte("x")}); err == nil {
				t.Error("empty key accepted")
			}
			if err := st.Put(Record{Key: "a\nb", Body: []byte("x")}); err == nil {
				t.Error("newline key accepted")
			}
		})
	}
}

func TestScanPrefixOrder(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"point|b", "sweep|x", "point|a", "point|c"} {
				if err := st.Put(Record{Key: k, Kind: "point", Body: []byte(`{}`)}); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			if err := st.Scan("point|", func(r Record) error {
				got = append(got, r.Key)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := []string{"point|a", "point|b", "point|c"}
			if len(got) != len(want) {
				t.Fatalf("scan %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scan %v, want %v", got, want)
				}
			}
			// A callback error stops the walk and surfaces.
			calls := 0
			err := st.Scan("point|", func(Record) error {
				calls++
				return fmt.Errorf("stop")
			})
			if err == nil || calls != 1 {
				t.Errorf("err=%v calls=%d", err, calls)
			}
		})
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("k%d", i%10)
						body := []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))
						if err := st.Put(Record{Key: key, Body: body}); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := st.Get(key); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := st.Stats().Keys; got != 10 {
				t.Errorf("keys = %d, want 10", got)
			}
		})
	}
}

func TestSegmentReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Put(Record{Key: fmt.Sprintf("k%02d", i), Kind: "point", Body: []byte(fmt.Sprintf(`{"i":%d}`, i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Keys; got != 20 {
		t.Fatalf("reopened keys = %d, want 20", got)
	}
	rec, ok, err := st2.Get("k07")
	if err != nil || !ok || string(rec.Body) != `{"i":7}` {
		t.Fatalf("reopened get: %v %v %s", ok, err, rec.Body)
	}
	// The reopened store accepts appends.
	if err := st2.Put(Record{Key: "k99", Body: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(Record{Key: "a", Body: []byte(`{"v":1}`)})
	st.Put(Record{Key: "b", Body: []byte(`{"v":2}`)})
	st.Close()

	// Simulate a crash mid-append: garbage without a trailing newline.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"c","bo`)
	f.Close()

	st2, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer st2.Close()
	if got := st2.Stats().Keys; got != 2 {
		t.Fatalf("keys = %d, want 2 (torn record dropped)", got)
	}
	// Appending after recovery must not weld onto torn bytes.
	if err := st2.Put(Record{Key: "d", Body: []byte(`{"v":4}`)}); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := st2.Get("d")
	if err != nil || !ok || string(rec.Body) != `{"v":4}` {
		t.Fatalf("post-recovery get: %v %v %s", ok, err, rec.Body)
	}
}

func TestSegmentMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(Record{Key: "a", Body: []byte(`{"v":1}`)})
	st.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	f, _ := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("not json\n")                   // complete (newline-terminated) garbage line
	f.WriteString(`{"key":"b","body":""}` + "\n") // followed by a valid record
	f.Close()

	if _, err := OpenSegmentStore(dir, 0); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation quickly.
	st, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 60)
	for i := 0; i < 12; i++ {
		if err := st.Put(Record{Key: fmt.Sprintf("k%d", i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().Segments; got < 2 {
		t.Fatalf("segments = %d, want rotation", got)
	}

	// Overwrite every key repeatedly: dead bytes pile up past live and
	// compaction fires.
	for round := 0; round < 6; round++ {
		for i := 0; i < 12; i++ {
			if err := st.Put(Record{Key: fmt.Sprintf("k%d", i), Body: body}); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatalf("no compaction after heavy overwrite: %+v", stats)
	}
	if stats.Keys != 12 {
		t.Fatalf("keys = %d, want 12", stats.Keys)
	}
	// Every record still reads back, and a reopen agrees.
	for i := 0; i < 12; i++ {
		if _, ok, err := st.Get(fmt.Sprintf("k%d", i)); !ok || err != nil {
			t.Fatalf("k%d lost after compaction: ok=%v err=%v", i, ok, err)
		}
	}
	st.Close()
	st2, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Keys; got != 12 {
		t.Fatalf("reopened keys = %d, want 12", got)
	}
}
