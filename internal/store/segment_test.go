package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// segHeader and segRecord render the on-disk lines of a segment file,
// without their trailing newline, for hand-built crash states.
func segHeader(tb testing.TB) []byte {
	tb.Helper()
	b, err := json.Marshal(segmentHeader{Format: segmentFormat, Version: segmentVersion})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func segRecord(tb testing.TB, key, body string) []byte {
	tb.Helper()
	b, err := json.Marshal(Record{Key: key, Kind: "point", Body: []byte(body)})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// segLines joins lines into segment bytes, newline-terminating each.
func segLines(lines ...[]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(append(out, l...), '\n')
	}
	return out
}

// liveRecords reads every live record of st into a key → body map.
func liveRecords(t *testing.T, st *SegmentStore) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	if err := st.Scan("", func(r Record) error {
		out[r.Key] = r.Body
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestSegmentCrashStates opens directories left behind by a crash at
// each point of a write: the youngest segment created but never given
// its header, a header alone, a header without its newline, a torn
// trailing record, and a record cut just before its newline. Each must
// open with exactly its intact records, then survive two reopen+append
// cycles with every record byte-identical — a torn tail that is only
// skipped on load, not truncated, would weld the next append onto it
// and fail the second reopen.
func TestSegmentCrashStates(t *testing.T) {
	hdr := segHeader(t)
	a := segRecord(t, "a", `{"v":1}`)
	b := segRecord(t, "b", `{"v":2}`)
	older := segLines(hdr, a, b) // a sealed segment preceding the crashed one
	for _, tc := range []struct {
		name string
		segs [][]byte // segment files in id order; the last is youngest
		want map[string]string
	}{
		{"zero-length youngest segment", [][]byte{older, {}}, map[string]string{"a": `{"v":1}`, "b": `{"v":2}`}},
		{"zero-length only segment", [][]byte{{}}, map[string]string{}},
		{"header only", [][]byte{segLines(hdr)}, map[string]string{}},
		{"header without newline", [][]byte{hdr}, map[string]string{}},
		{"torn tail", [][]byte{append(segLines(hdr, a), b[:len(b)/2]...)}, map[string]string{"a": `{"v":1}`}},
		{"torn only record", [][]byte{append(segLines(hdr), a[:len(a)-5]...)}, map[string]string{}},
		{"unterminated last record", [][]byte{append(segLines(hdr, a), b...)}, map[string]string{"a": `{"v":1}`, "b": `{"v":2}`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for i, data := range tc.segs {
				name := filepath.Join(dir, fmt.Sprintf("seg-%08d.ndjson", i+1))
				if err := os.WriteFile(name, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := make(map[string][]byte, len(tc.want)+2)
			for k, v := range tc.want {
				want[k] = []byte(v)
			}
			for cycle := 0; cycle <= 2; cycle++ {
				st, err := OpenSegmentStore(dir, 0)
				if err != nil {
					t.Fatalf("open after %d append cycles: %v", cycle, err)
				}
				got := liveRecords(t, st)
				if len(got) != len(want) {
					t.Fatalf("cycle %d: recovered %d records, want %d", cycle, len(got), len(want))
				}
				for k, body := range want {
					if !bytes.Equal(got[k], body) {
						t.Fatalf("cycle %d: record %q = %q, want %q", cycle, k, got[k], body)
					}
				}
				if cycle == 2 {
					st.Close()
					break
				}
				key, body := fmt.Sprintf("new%d", cycle), []byte(fmt.Sprintf(`{"cycle":%d}`, cycle))
				if err := st.Put(Record{Key: key, Kind: "point", Body: body}); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				want[key] = body
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// FuzzSegmentReplay feeds arbitrary bytes — torn tails, binary garbage,
// missing newlines — as the youngest segment behind one sealed segment,
// and checks the replay contract: opening either fails cleanly or
// recovers a store that takes a Put, closes, and reopens with every
// recovered record byte-identical plus the new one. The seed corpus is
// the crash states TestSegmentCrashStates pins, plus corrupt lines.
func FuzzSegmentReplay(f *testing.F) {
	hdr := segHeader(f)
	full := segLines(segRecord(f, "k1", `{"index":1}`))

	f.Add([]byte{})                                                       // crash before the header flush
	f.Add(segLines(hdr))                                                  // header only
	f.Add(bytes.Clone(hdr))                                               // header without its newline
	f.Add(append(segLines(hdr), full...))                                 // one intact record
	f.Add(append(segLines(hdr), full[:len(full)-1]...))                   // record missing its newline
	f.Add(append(segLines(hdr), full[:len(full)/2]...))                   // torn trailing record
	f.Add(append(segLines(hdr), `{"key":""}`+"\n"...))                    // record without a key
	f.Add(append(segLines(hdr), "garbage\n{}\n"...))                      // corrupt middle line
	f.Add([]byte("\x00\x01\x02\xff\xfe\n"))                               // binary garbage
	f.Add([]byte(`{"format":"ppatc-store-segment","version":99}` + "\n")) // wrong version header

	older := segLines(hdr, segRecord(f, "k0", `{"index":0}`), segRecord(f, "k1", `{"index":1,"old":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.ndjson"), older, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000002.ndjson"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenSegmentStore(dir, 0)
		if err != nil {
			return // rejecting a mangled segment is always acceptable
		}
		recovered := liveRecords(t, st)
		const newKey = "fuzz|new"
		newBody := []byte(`{"fuzz":true}`)
		if err := st.Put(Record{Key: newKey, Kind: "point", Body: newBody}); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenSegmentStore(dir, 0)
		if err != nil {
			t.Fatalf("reopen after put: %v", err)
		}
		defer st2.Close()
		got := liveRecords(t, st2)
		if !bytes.Equal(got[newKey], newBody) {
			t.Fatalf("new record lost: %q", got[newKey])
		}
		for k, body := range recovered {
			if k != newKey && !bytes.Equal(got[k], body) {
				t.Fatalf("recovered record %q changed across put+reopen: %q → %q", k, body, got[k])
			}
		}
		want := len(recovered)
		if _, dup := recovered[newKey]; !dup {
			want++
		}
		if len(got) != want {
			t.Fatalf("reopened %d records, want %d", len(got), want)
		}
	})
}
